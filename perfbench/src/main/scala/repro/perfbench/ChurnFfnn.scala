package repro.perfbench

import repro.bufferpool.LocalitySetPolicy
import repro.core.PagePacking
import repro.core.PagePacking.Problem
import repro.experiments.Scenarios.{Ffnn, GB, HddSeq, PageBytes}
import repro.model.{Model, ModelGen}
import repro.serving.{InferenceEngine, ServingConfig}
import scala.collection.mutable
import scala.util.Random

/** Writes beside reads over the FFNN transfer-learning family (Sec. 7.1.3:
  * W1 shared bit for bit, no gate). A closed loop of seeded adds, removes
  * and updates (remove plus add) keeps 3 to 7 models live; every add uses
  * a fresh model id. After each write the store is re-derived with
  * `fromDedup`, repacked with `twoStageReusing` against the previous
  * pages and reloaded; then one batch is served over the live models with
  * a 13 GB pool, where the working set fits. The same core and storage
  * layers as ingest run here incrementally, with no model work.
  */
object ChurnFfnn {

  val InitialLive = 5
  /** Models generated up front. Two writes in three add a model with a fresh
    * id, so this covers about 1,620 writes, 52 s of warm-up and measuring at
    * the fastest rate seen (31 writes/s with their checks and serving
    * batches); the loop stops early if fresh ids run out.
    */
  val PoolModels = 1080
  val BlocksPerPage = 8
  val PoolBytes: Long = 13 * GB
  val SetupRepeats = 3
  /** Blocks of writes whose end states give `storage_ratio`. */
  val RatioBlocks = 10

  private sealed trait Kind
  private case object Add extends Kind
  private case object Remove extends Kind
  private case object Update extends Kind

  def run(seed: Long, seconds: Double, tr: Tracer): Outcome = {
    val c = new Counters
    val setupSeconds = Vector.newBuilder[Double]
    def setUp() = {
      val (s, r) = Timing.seconds(tr.span("setup") {
        val pool = tr.span("model.gen")(ModelGen.ffnnFamily(PoolModels, seed = Seeds.ffnn(seed)))
        val live = pool.take(InitialLive)
        (pool, live, Pipeline.ingest(live, None, _ => 0.0, BlocksPerPage, lshW = 0.3, tr))
      })
      setupSeconds += s
      r
    }
    // Only the last set-up is kept, so earlier pools do not crowd the heap.
    (1 until SetupRepeats).foreach(_ => setUp())
    val (pool, initial, ing) = setUp()
    val idx = ing.index
    var problem = ing.problem
    var packing = ing.packing
    var store = ing.store
    val live = mutable.ArrayBuffer.from(initial)
    var nextFresh = initial.size
    var failed = 0
    var created, reused, discarded = 0
    val storageRatios = mutable.ArrayBuffer.empty[Double]
    val serveMs = mutable.ArrayBuffer.empty[Double]
    var hits, misses = 0L
    val rnd = new Random(Seeds.requests(seed))

    /** One batch over the live models; returns violations of the access count. */
    def serve(i: Int, models: Seq[Model]): Seq[String] = {
      val ids = models.map(_.id)
      val rates = ids.map(_ -> 1.0 / ids.size).toMap
      val cfg = ServingConfig(HddSeq, PoolBytes,
        LocalitySetPolicy(innerMru = true, sharingAware = true, rates, horizon = 1.0),
        Ffnn.computePerModel, Ffnn.inputBytes, Ffnn.probeRounds, PageBytes, Ffnn.pinnedPerModel)
      val engine = new InferenceEngine(store, cfg, models.flatMap(m => m.tensors.map(_.id -> m.id)).toMap)
      val modelTensors = models.map(m => m.id -> m.tensors.map(_.id)).toMap
      val (ms, rep) = Timing.millis(tr.span("serve", i)(
        tr.span("serving.serve_all", i)(engine.serveAll(ids, modelTensors))))
      serveMs += ms
      hits += rep.hits; misses += rep.misses
      val inputPages = math.max(1L, Ffnn.inputBytes / PageBytes).toInt
      val expected = models.map { m =>
        inputPages + Ffnn.probeRounds * m.tensors.map(t => packing.pagesOf(problem, t.id).size).sum
      }.sum
      if (rep.hits + rep.misses == expected) Nil
      else Seq(s"serve: ${rep.hits + rep.misses} accesses, expected $expected")
    }

    // Kinds come in shuffled blocks of two adds, two removes and two
    // updates, so every seed runs the same mix and the live set stays
    // within InitialLive +- 2; the seed picks the order and the victims.
    val block = Seq(Add, Add, Remove, Remove, Update, Update)
    val kinds = Iterator.continually(rnd.shuffle(block)).flatten
    val loop = Timing.closedLoop(Timing.WarmupSeconds, seconds) { i =>
      val kind = kinds.next()
      val victim = if (kind == Add) None else Some(live(rnd.nextInt(live.size)))
      val fresh = if (kind == Remove) None else Some(nextFresh)
      if (fresh.exists(_ >= pool.size)) None
      else {
        val prevPages = packing.distinctPages
        val (ms, stats) = Timing.millis(tr.span("op", i) {
          victim.foreach(m => m.tensors.foreach(t => tr.span("core.remove_tensor", i)(idx.removeTensor(t.id))))
          val stats = fresh.map(f => tr.span("core.add_model", i)(idx.addModel(pool(f).tensors, None)))
          problem = tr.span("core.from_dedup", i)(Problem.fromDedup(idx, BlocksPerPage))
          packing = tr.span("core.pack_reusing", i)(PagePacking.twoStageReusing(problem, prevPages))
          store = Pipeline.load(packing, problem, tr, i)
          stats
        })
        Pipeline.recordDedup(stats.toSeq, c)
        victim.foreach(live -= _)
        fresh.foreach { f => live += pool(f); nextFresh += 1 }

        val (r, d, n) = Pipeline.pageDiff(prevPages, packing.distinctPages)
        reused += r; discarded += d; created += n
        // Each block of kinds ends with InitialLive models live again. Repacking
        // with reuse drifts upward as writes accumulate, so the ratio is taken
        // at the same block ends in every run, whatever its speed.
        if ((i + 1) % block.size == 0 && storageRatios.size < RatioBlocks)
          storageRatios += store.numPages.toDouble / Pipeline.plainPages(live.toSeq, BlocksPerPage)
        val errs = Pipeline.violations(live.toSeq, idx, problem, packing, store) ++ serve(i, live.toSeq)
        if (errs.nonEmpty) { failed += 1; errs.foreach(e => System.err.println(s"churn op $i ($kind): $e")) }
        Some(ms)
      }
    }
    val ops = loop.measured

    c.set("core.pages_reused", reused)
    c.set("core.pages_discarded", discarded)
    c.set("core.pages_created", created)
    Pipeline.recordStore(idx, store, c)
    val ratio = Stats.median(storageRatios.toSeq)
    Outcome(loop.all.size, failed, ops, setupSeconds.result(), ratio,
      Seq(Metric("write_op_p50_ms", Stats.percentile(ops, 0.5), "ms"),
        Metric("write_op_p95_ms", Stats.percentile(ops, 0.95), "ms"),
        Metric("churn_ops_per_s", ops.size / (ops.sum / 1e3), "1/s"),
        Metric("pages_created_per_op", created.toDouble / loop.all.size, "count"),
        Metric("serve_p50_ms", Stats.median(serveMs.toSeq), "ms"),
        Metric("hit_ratio", hits.toDouble / (hits + misses), "ratio"),
        Metric("storage_ratio", ratio, "ratio"),
        Metric("live_pages", store.numPages, "count"),
        Metric("distinct_blocks", idx.numDistinct, "count"),
        Metric("ops_failed_share", failed.toDouble / loop.all.size, "ratio")),
      c)
  }
}
