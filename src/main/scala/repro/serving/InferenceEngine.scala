package repro.serving

import repro.bufferpool.{BufferPool, PageMeta, Policy}
import repro.device.StorageDevice
import repro.storage.{PageId, PageStore}
import scala.collection.mutable

/** Serving-cost parameters of one scenario (DESIGN.md §2: netsDB's
  * execution modeled as a page-access trace over the paper-scale store).
  *
  * A model inference batch performs `probeRounds` passes over the model's
  * weight pages — the repeated probing of the join hash map built from the
  * parameter pages, one pass per input sub-batch — interleaved with reads of
  * the (model-independent) input pages. Compute cost is charged evenly
  * across rounds.
  *
  * @param computeSecondsPerModel CPU time for one batch of inferences
  * @param inputBytes             size of the input feature batch
  * @param probeRounds            input sub-batches per inference batch
  * @param pinnedBytesPerModel    transient working state pinned while a model
  *                               is being served (join hash map +
  *                               intermediates); subtracted from the pool
  *                               capacity available to weight/input pages
  */
final case class ServingConfig(device: StorageDevice, poolBytes: Long, policy: Policy,
                               computeSecondsPerModel: Double, inputBytes: Long,
                               probeRounds: Int = 8, pageBytes: Long = 64L << 20,
                               pinnedBytesPerModel: Long = 0L)

final case class ServingReport(totalSeconds: Double, ioSeconds: Double,
                               computeSeconds: Double, hitRatio: Double,
                               hits: Long, misses: Long)

/** Trace-driven model-serving engine over the deduplicated page store. */
final class InferenceEngine(store: PageStore, cfg: ServingConfig,
                            tensorToModel: Map[Int, Int]) {

  /** Models that reference a page (for Eq. 7's sharer rates). */
  private def sharersOf(id: PageId): Set[Int] =
    store.owners(id).map(t => tensorToModel.getOrElse(t, t))

  /** One model's weight pages in read order, each with its pool
    * descriptor: shared pages form one locality set, a model's private
    * pages another.
    */
  private def traceOf(m: Int, tensors: Seq[Int]): Array[(Int, PageMeta)] = {
    val own = s"weights-$m"
    tensors.flatMap(store.pagesOf).map { id =>
      val set = if (store.refCount(id) > 1) "shared" else own
      (id.value, PageMeta(store.page(id).bytes, set, sharersOf(id)))
    }.toArray
  }

  /** Serve one inference batch on every listed model, in order; pages flow
    * through the buffer pool, misses charge device time. The store must not
    * change during the call: each requested model's page trace is built
    * once and replayed for every request and probe round.
    */
  def serveAll(models: Seq[Int], modelTensors: Map[Int, Seq[Int]]): ServingReport = {
    val effective = math.max(cfg.pageBytes, cfg.poolBytes - cfg.pinnedBytesPerModel)
    val pool = new BufferPool(effective, cfg.policy, cfg.device)
    val inputPages = math.max(1L, cfg.inputBytes / cfg.pageBytes).toInt
    val input = PageMeta(cfg.pageBytes, "input", models.toSet)
    val traces = mutable.HashMap.empty[Int, Array[(Int, PageMeta)]]
    var io = 0.0
    for (m <- models) {
      val trace = traces.getOrElseUpdate(m, traceOf(m, modelTensors(m)))
      // The input batch is scanned once per model (the hash-map build side
      // streams it); weight pages are probed once per input sub-batch.
      // Input pages use negative ids so they never clash with store pages.
      for (p <- 0 until inputPages) io += pool.read(-1 - p, input)
      for (_ <- 0 until cfg.probeRounds)
        trace.foreach { case (id, meta) => io += pool.read(id, meta) }
    }
    val compute = cfg.computeSecondsPerModel * models.size
    ServingReport(compute + io, io, compute, pool.hitRatio, pool.hits, pool.misses)
  }
}
