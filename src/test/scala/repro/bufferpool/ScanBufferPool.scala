package repro.bufferpool

import repro.core.EvictionCost
import repro.device.StorageDevice
import scala.collection.mutable

/** Reference buffer pool for [[BufferPoolIdentitySpec]]: the scan-based
  * simulator [[BufferPool]] replaced, kept as it was. Every eviction groups
  * the cached frames by locality set, takes each set's MRU or LRU frame and
  * recomputes its Eq. 6 cost; LRU and MRU scan every frame. Same policy,
  * O(frames) per eviction.
  */
final class ScanBufferPool(val capacityBytes: Long, val policy: Policy,
                           val device: StorageDevice) {
  require(capacityBytes > 0)

  private final class Frame(val meta: PageMeta) { var lastSeq: Long = 0L }

  private val frames = mutable.LinkedHashMap.empty[Int, Frame]
  private var seq = 0L
  private var used = 0L

  var hits: Long = 0L
  var misses: Long = 0L
  var evictions: Long = 0L
  var ioSeconds: Double = 0.0

  def hitRatio: Double = if (hits + misses == 0) 0.0 else hits.toDouble / (hits + misses)
  def usedBytes: Long = used
  def cached(pageId: Int): Boolean = frames.contains(pageId)

  private def pReuseOf(f: Frame): Double = policy match {
    case p: LocalitySetPolicy =>
      val rs = f.meta.sharers.toSeq.map(m => p.rates.getOrElse(m, 0.0))
      if (p.sharingAware) EvictionCost.pReuse(rs, p.horizon)
      else EvictionCost.pReuse(Seq(if (rs.isEmpty) 0.0 else rs.sum / rs.size), p.horizon)
    case _ => 0.0
  }

  private def victim(): Int = policy match {
    case Lru => frames.minBy(_._2.lastSeq)._1
    case Mru => frames.maxBy(_._2.lastSeq)._1
    case p: LocalitySetPolicy =>
      val bySet = frames.groupBy(_._2.meta.localitySet)
      val candidates = bySet.toSeq.sortBy(_._1).map { case (_, fs) =>
        if (p.innerMru) fs.maxBy(_._2.lastSeq) else fs.minBy(_._2.lastSeq)
      }
      candidates.minBy { case (_, f) =>
        val cw = if (f.meta.dirty) device.writeSeconds(f.meta.bytes) else 0.0
        (EvictionCost.expected(cw, device.readSeconds(f.meta.bytes), pReuseOf(f)), f.lastSeq)
      }._1
  }

  private def evictOne(): Unit = {
    val id = victim()
    val f = frames.remove(id).get
    used -= f.meta.bytes
    evictions += 1
    if (f.meta.dirty) ioSeconds += device.writeSeconds(f.meta.bytes)
  }

  def read(pageId: Int, meta: PageMeta): Double = {
    seq += 1
    frames.get(pageId) match {
      case Some(f) =>
        f.lastSeq = seq
        hits += 1
        0.0
      case None =>
        misses += 1
        val cost = device.readSeconds(meta.bytes)
        ioSeconds += cost
        if (meta.bytes <= capacityBytes) {
          while (used + meta.bytes > capacityBytes && frames.nonEmpty) evictOne()
          val f = new Frame(meta); f.lastSeq = seq
          frames(pageId) = f
          used += meta.bytes
        }
        cost
    }
  }

  def discard(pageId: Int): Unit =
    frames.remove(pageId).foreach(f => used -= f.meta.bytes)
}
