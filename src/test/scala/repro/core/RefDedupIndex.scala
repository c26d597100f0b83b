package repro.core

import repro.core.PagePacking.Problem
import scala.collection.mutable

/** Reference index for [[DedupIdentitySpec]]: [[DedupIndex]] as it was
  * before each block's magnitude and signature were computed once. It keys
  * `bySig` by `"i:a,b,c"` strings, sorts by a magnitude recomputed on every
  * comparison (with [[RefMagnitude]]'s boxed sort), signs a block again when
  * it founds a group or its group empties, and always builds the gate's
  * weight map. Kept as it was, apart from its name.
  */
final class RefDedupIndex(config: DedupConfig) {

  /** A similarity group: representative (index into L) + member refs. */
  final class Group(val id: Int, val repIdx: Int) {
    val members: mutable.LinkedHashSet[BlockRef] = mutable.LinkedHashSet.empty
  }

  // Insertion-ordered, so the pairwise matcher scans groups in creation
  // order; removal is O(1).
  private val groups = mutable.LinkedHashSet.empty[Group]
  private val bySig = mutable.HashMap.empty[String, Group] // signature matchers only
  private val refToGroup = mutable.HashMap.empty[BlockRef, Group]
  private val distinctBuf = mutable.ArrayBuffer.empty[TensorBlock] // L
  private val mappingBuf = mutable.HashMap.empty[BlockRef, Int]    // F
  private val refsOfTensor = mutable.HashMap.empty[Int, mutable.HashSet[BlockRef]]

  private var probeNanosTotal = 0L
  private var probesTotal = 0

  // -- internal matching ---------------------------------------------------

  private def bandKeys(sig: Signature): Seq[String] = config.matcher match {
    case SignatureMatcher(_, bands, _) if bands > 1 =>
      val per = math.max(1, sig.values.size / bands)
      sig.values.grouped(per).zipWithIndex.map { case (chunk, i) => s"$i:${chunk.mkString(",")}" }.toSeq
    case _ => Seq("0:" + sig.key)
  }

  /** Find the group this block would join, or None. Timed for Table 9. */
  private def probe(block: TensorBlock): Option[Group] = {
    val t0 = System.nanoTime()
    val res = config.matcher match {
      case SignatureMatcher(hasher, _, verify) =>
        val keys = bandKeys(hasher.signature(block.data))
        keys.iterator.flatMap(bySig.get).find { g =>
          !verify || distinctBuf(g.repIdx).sameContent(block)
        }
      case PairwiseMatcher(threshold) =>
        groups.iterator.find(g => distinctBuf(g.repIdx).l2(block) <= threshold)
    }
    probeNanosTotal += System.nanoTime() - t0
    probesTotal += 1
    res
  }

  private def newGroup(block: TensorBlock): Group = {
    distinctBuf += block
    val g = new Group(groups.size, distinctBuf.size - 1)
    groups += g
    config.matcher match {
      case SignatureMatcher(hasher, _, _) =>
        bandKeys(hasher.signature(block.data)).foreach(k => if (!bySig.contains(k)) bySig(k) = g)
      case _ => ()
    }
    g
  }

  private def index(ref: BlockRef, g: Group): Unit = {
    refToGroup(ref) = g
    refsOfTensor.getOrElseUpdate(ref.tensorId, mutable.HashSet.empty) += ref
  }

  // -- public API ----------------------------------------------------------

  /** Index one model's tensors (Alg. 1). `eval` is consulted only when the
    * config has a gate; pass None for exact dedup or accuracy-free runs.
    *
    * No tensor may already be indexed, nor appear twice: re-adding a live
    * tensor would count its blocks twice in their groups. Remove it first.
    *
    * @return this model's stats; mappings accumulate in [[mapping]].
    */
  def addModel(tensors: Seq[Tensor], eval: Option[ModelAccuracy]): ModelDedupStats = {
    val blocks: Vector[TensorBlock] = tensors.iterator.flatMap(_.blocks).toVector
    val refs = blocks.map(_.ref)
    require(refs.distinct.size == refs.size, s"a block appears twice in tensors ${tensors.map(_.id).mkString(",")}")
    val live = refs.filter(refToGroup.contains).map(_.tensorId).distinct
    require(live.isEmpty, s"tensor ids already indexed: ${live.mkString(",")}")
    val ordered = config.order match {
      case ExamOrder.MagnitudeAscending =>
        blocks.sortBy(b => RefMagnitude.thirdQuartile(b.data))
      case ExamOrder.Natural => blocks
    }
    // Current weight assignment for this model, mutated as blocks merge.
    val current = mutable.HashMap.empty[BlockRef, Array[Double]]
    blocks.foreach(b => current(b.ref) = b.data)
    val lookup: BlockRef => Array[Double] = current(_)

    val a0 = eval.map(_.accuracy(lookup)).getOrElse(1.0)
    val probeStart = probeNanosTotal; val probesStart = probesTotal

    var merged = 0
    var stopped = false
    var a = a0
    val batch = config.gate.map(_.checkEvery).getOrElse(Int.MaxValue)
    var i = 0
    while (i < ordered.size) {
      val upTo = math.min(i + batch, ordered.size)
      var j = i
      while (j < upTo) {
        val b = ordered(j)
        probe(b) match {
          case Some(g) if !stopped =>
            g.members += b.ref
            index(b.ref, g)
            mappingBuf(b.ref) = g.repIdx
            current(b.ref) = distinctBuf(g.repIdx).data
            merged += 1
          case Some(g) =>
            // Gate tripped: record membership but keep a private distinct copy
            // (Sec. 4.3 Step 4 — the block is NOT replaced).
            g.members += b.ref
            index(b.ref, g)
            distinctBuf += b
            mappingBuf(b.ref) = distinctBuf.size - 1
          case None =>
            val g = newGroup(b)
            g.members += b.ref
            index(b.ref, g)
            mappingBuf(b.ref) = g.repIdx
        }
        j += 1
      }
      i = upTo
      if (!stopped && config.gate.isDefined && eval.isDefined && merged > 0) {
        a = eval.get.accuracy(lookup)
        if (a0 - a > config.gate.get.maxDrop) stopped = true
      }
    }
    if (eval.isDefined) a = eval.get.accuracy(lookup)
    ModelDedupStats(
      modelId = tensors.headOption.map(_.id).getOrElse(-1),
      accuracyBefore = a0, accuracyAfter = a,
      merged = merged, total = blocks.size, stoppedEarly = stopped,
      probeNanos = probeNanosTotal - probeStart, probes = probesTotal - probesStart)
  }

  /** The distinct-block list L: every physically stored block, in index order. */
  def distinct: Vector[TensorBlock] = distinctBuf.toVector

  /** F: each logical block reference -> index of its distinct block in L. */
  def mapping: Map[BlockRef, Int] = mappingBuf.toMap

  /** Owners of each distinct block: distinct index -> set of tensor ids.
    * Input to equivalent-class page packing (Sec. 5).
    */
  def owners: Map[Int, Set[Int]] =
    mappingBuf.toSeq.groupBy(_._2).map { case (idx, refs) =>
      idx -> refs.map(_._1.tensorId).toSet
    }

  def numGroups: Int = groups.size
  def numDistinct: Int = distinctBuf.size
  def avgProbeSeconds: Double = if (probesTotal == 0) 0 else probeNanosTotal / 1e9 / probesTotal

  /** Group membership size for the group containing `ref` (tests/diagnostics). */
  def groupSizeOf(ref: BlockRef): Option[Int] = refToGroup.get(ref).map(_.members.size)

  /** Remove one logical block (Sec. 4.3 Removal): drop it from its group;
    * the representative never changes; a group whose sole remaining member
    * was the representative's own ref disappears with it.
    */
  def removeBlock(ref: BlockRef): Boolean = refToGroup.remove(ref) match {
    case None => false
    case Some(g) =>
      g.members -= ref
      mappingBuf.remove(ref)
      refsOfTensor.get(ref.tensorId).foreach { rs =>
        rs -= ref
        if (rs.isEmpty) refsOfTensor.remove(ref.tensorId)
      }
      if (g.members.isEmpty) {
        config.matcher match {
          case SignatureMatcher(hasher, _, _) =>
            bandKeys(hasher.signature(distinctBuf(g.repIdx).data))
              .foreach(k => if (bySig.get(k).contains(g)) bySig.remove(k))
          case _ => ()
        }
        groups -= g
      }
      true
  }

  /** Remove every block of a tensor (model removal = per-tensor removal).
    * O(blocks of the tensor); the final state does not depend on the order
    * the blocks are removed in.
    */
  def removeTensor(tensorId: Int): Int =
    refsOfTensor.remove(tensorId).fold(0)(_.count(removeBlock))
}

object RefDedupIndex {

  /** `Problem.fromDedup` as it was: groups F by tensor, sorts each tensor's
    * refs by a `(row, col)` tuple and takes the owners from a second
    * grouping of F.
    */
  def fromDedup(idx: RefDedupIndex, l: Int): Problem = {
    val mapping = idx.mapping
    val byTensor = mapping.toVector.groupBy(_._1.tensorId)
    val logical = byTensor.map { case (tid, refs) =>
      tid -> refs.sortBy { case (r, _) => (r.blockId.row, r.blockId.col) }.map(_._2)
    }
    val tensors = logical.map { case (tid, seq) => tid -> seq.distinct }
    Problem(idx.owners, tensors, l, Some(logical))
  }
}
