package repro.bufferpool

import repro.core.EvictionCost
import repro.device.StorageDevice
import scala.collection.mutable

/** Descriptor the pool needs for each page it may cache.
  *
  * @param bytes       page size (virtual, paper-scale)
  * @param localitySet name of the locality set the page belongs to
  *                    (e.g. "shared", "weights-3", "input")
  * @param sharers     ids of the models that reference the page — drives the
  *                    dedup-aware reuse probability (Eq. 7)
  * @param dirty       whether eviction must write the page out (c_w > 0)
  */
final case class PageMeta(bytes: Long, localitySet: String, sharers: Set[Int],
                          dirty: Boolean = false)

/** Page-replacement policies compared in Sec. 7.5. */
sealed trait Policy { def name: String }
/** Classic global least-recently-used. */
case object Lru extends Policy { val name = "LRU" }
/** Global most-recently-used (protects scan prefixes). */
case object Mru extends Policy { val name = "MRU" }

/** Locality-set policy [18, 73, 74]: each set orders its pages internally
  * (MRU or LRU) and the victim set is the one whose eviction candidate has
  * the lowest expected cost `c_w + p_reuse * c_r` (Eq. 6).
  *
  * @param innerMru     per-set ordering: true = MRU candidate, false = LRU
  * @param sharingAware the paper's optimization: p_reuse sums the Poisson
  *                     rates of ALL sharers (Eq. 7); when false a page is
  *                     credited only a single model's mean rate
  * @param rates        per-model access rate (arrivals per tick)
  * @param horizon      the look-ahead window t of Eq. 7, in ticks
  */
final case class LocalitySetPolicy(innerMru: Boolean, sharingAware: Boolean,
                                   rates: Map[Int, Double], horizon: Double) extends Policy {
  val name: String =
    (if (sharingAware) "Optimized-" else "LocalitySet-") + (if (innerMru) "M" else "L")
}

/** Trace-driven buffer pool simulator over virtual-size pages.
  *
  * `read` charges device read time on a miss and nothing on a hit; evicting
  * a dirty page charges device write time. Capacity is in bytes; a page
  * larger than the whole pool is read through without caching.
  *
  * A cached frame keeps the [[PageMeta]] it was admitted with: a hit only
  * refreshes its recency, whatever meta the hit passes. Each frame sits in
  * one recency list, least recently used at the head: one global list for
  * LRU and MRU, one list per locality set otherwise. Because the meta never
  * changes while the frame is cached, the frame's Eq. 6 cost is computed
  * once, at admission, and stays exact. A victim costs O(1) for LRU/MRU and
  * O(non-empty sets) for the locality-set policies.
  */
final class BufferPool(val capacityBytes: Long, val policy: Policy,
                       val device: StorageDevice) {
  require(capacityBytes > 0)

  private final class Frame(val id: Int, val meta: PageMeta, val cost: Double,
                            val list: RecencyList) {
    var lastSeq: Long = 0L
    var prev: Frame = null
    var next: Frame = null
  }

  /** Intrusive doubly-linked list of frames, oldest access at the head. */
  private final class RecencyList(val name: String) {
    var head: Frame = null
    var tail: Frame = null

    def append(f: Frame): Unit = {
      f.prev = tail; f.next = null
      if (tail == null) head = f else tail.next = f
      tail = f
    }

    def unlink(f: Frame): Unit = {
      if (f.prev == null) head = f.next else f.prev.next = f.next
      if (f.next == null) tail = f.prev else f.next.prev = f.prev
      f.prev = null; f.next = null
    }
  }

  private val frames = mutable.LongMap.empty[Frame]
  /** Non-empty recency lists by locality set (locality-set policies only). */
  private val sets = mutable.HashMap.empty[String, RecencyList]
  private val global = new RecencyList("")
  private var seq = 0L
  private var used = 0L

  var hits: Long = 0L
  var misses: Long = 0L
  var evictions: Long = 0L
  var ioSeconds: Double = 0.0

  def hitRatio: Double = if (hits + misses == 0) 0.0 else hits.toDouble / (hits + misses)
  def usedBytes: Long = used
  def cached(pageId: Int): Boolean = frames.contains(pageId)

  private def pReuseOf(p: LocalitySetPolicy, meta: PageMeta): Double = {
    val rs = meta.sharers.toSeq.map(m => p.rates.getOrElse(m, 0.0))
    if (p.sharingAware) EvictionCost.pReuse(rs, p.horizon)
    else EvictionCost.pReuse(Seq(if (rs.isEmpty) 0.0 else rs.sum / rs.size), p.horizon)
  }

  /** Eq. 6 expected eviction cost of a page (0 under LRU/MRU, unused). */
  private def costOf(meta: PageMeta): Double = policy match {
    case p: LocalitySetPolicy =>
      val cw = if (meta.dirty) device.writeSeconds(meta.bytes) else 0.0
      EvictionCost.expected(cw, device.readSeconds(meta.bytes), pReuseOf(p, meta))
    case _ => 0.0
  }

  private def listFor(meta: PageMeta): RecencyList = policy match {
    case _: LocalitySetPolicy => sets.getOrElseUpdate(meta.localitySet, new RecencyList(meta.localitySet))
    case _ => global
  }

  /** Pick the next victim according to the configured policy. */
  private def victim(): Frame = policy match {
    case Lru => global.head
    case Mru => global.tail
    case p: LocalitySetPolicy =>
      // Each set's candidate is its MRU (tail) or LRU (head) frame. Lowest
      // expected cost wins; equal costs fall back to plain recency (oldest
      // first), so the un-optimized policy degenerates gracefully. `lastSeq`
      // is unique, so the order the sets are visited in cannot matter.
      var best: Frame = null
      val it = sets.valuesIterator
      while (it.hasNext) {
        val s = it.next()
        val c = if (p.innerMru) s.tail else s.head
        if (best == null) best = c
        else {
          val byCost = java.lang.Double.compare(c.cost, best.cost)
          if (byCost < 0 || (byCost == 0 && c.lastSeq < best.lastSeq)) best = c
        }
      }
      best
  }

  private def remove(f: Frame): Unit = {
    frames.remove(f.id.toLong)
    f.list.unlink(f)
    if (f.list.head == null) sets.remove(f.list.name)
    used -= f.meta.bytes
  }

  private def evictOne(): Unit = {
    val f = victim()
    remove(f)
    evictions += 1
    if (f.meta.dirty) ioSeconds += device.writeSeconds(f.meta.bytes)
  }

  /** Access a page for reading; returns the seconds charged. */
  def read(pageId: Int, meta: PageMeta): Double = {
    seq += 1
    val hit = frames.getOrNull(pageId.toLong)
    if (hit != null) {
      hit.lastSeq = seq
      hit.list.unlink(hit)
      hit.list.append(hit)
      hits += 1
      0.0
    } else {
      misses += 1
      val cost = device.readSeconds(meta.bytes)
      ioSeconds += cost
      if (meta.bytes <= capacityBytes) {
        val evictionCost = costOf(meta)
        while (used + meta.bytes > capacityBytes && frames.nonEmpty) evictOne()
        val f = new Frame(pageId, meta, evictionCost, listFor(meta)); f.lastSeq = seq
        f.list.append(f)
        frames(pageId.toLong) = f
        used += meta.bytes
      }
      cost
    }
  }

  /** Drop a page without cost (e.g., transient data freed after use). */
  def discard(pageId: Int): Unit = {
    val f = frames.getOrNull(pageId.toLong)
    if (f != null) remove(f)
  }
}
