package repro.perfbench

import repro.bufferpool.{BufferPool, LocalitySetPolicy, PageMeta}
import repro.experiments.Scenarios
import repro.experiments.Scenarios.{GB, HddEff, PageBytes, W2v}
import repro.model.{AccuracyEval, ModelGen}
import repro.serving.{InferenceEngine, ServingConfig}
import scala.util.Random

/** Serve the 12-model word2vec store (gate on) in a closed loop with one
  * client. Each round is one `InferenceEngine.serveAll` call over 12
  * requests drawn from a Zipf(1) mix, under Optimized-M on HDD with an
  * 8 GB pool (Table 2's headline cell). The working set is several times
  * the pool left after pinning, so a round is dominated by buffer-pool
  * victim selection; set-up builds the store and is the only model or
  * dedup work. The store is `Scenarios.word2vec(12)`'s at every seed; the
  * seed drives the request mix (see [[Seeds]]).
  */
object ServeW2v12 {

  val NumModels = 12
  val RequestsPerRound = 12
  val PoolBytes: Long = 8 * GB
  val ProbeRounds = 8
  val BlocksPerPage: Int = Scenarios.BlocksPerPage
  val LabelNoise = 0.05
  /** Rounds replayed through the benchmark's own pool; their counts repeat
    * exactly at a fixed seed.
    */
  val ReplayRounds = 40

  def run(seed: Long, seconds: Double, tr: Tracer): Outcome = {
    val c = new Counters
    val (setupS, (models, ing)) = Timing.seconds(tr.span("setup") {
      val (fam, models) = tr.span("model.gen")(ModelGen.word2vecFamily(NumModels))
      val eval = new AccuracyEval(fam)
      (models, Pipeline.ingest(models, Some(eval), _ => LabelNoise, BlocksPerPage, lshW = 0.3, tr))
    })
    val setupErrs = Pipeline.violations(models, ing.index, ing.problem, ing.packing, ing.store)
    setupErrs.foreach(e => System.err.println(s"serve set-up: $e"))
    val store = ing.store
    val tensorToModel = models.flatMap(m => m.tensors.map(_.id -> m.id)).toMap
    val modelTensors = models.map(m => m.id -> m.tensors.map(_.id)).toMap
    // Pages each model reads, from the packing rather than the store, so the
    // per-round access check does not trust the code it checks.
    val pagesPerModel = models.map(m => m.id -> m.tensors.map(t => ing.packing.pagesOf(ing.problem, t.id).size).sum).toMap
    val inputPages = math.max(1L, W2v.inputBytes / PageBytes).toInt

    // Zipf(1) over the models, model 0 the most requested; the seed draws
    // the requests. Ranking the models per seed changes which pages are hot:
    // over seeds 1-5 the modelled round time spread 11 % with seeded ranks
    // and 3 % with fixed ones.
    val rnd = new Random(Seeds.requests(seed))
    val ranked = models.map(_.id)
    val weights = ranked.indices.map(r => 1.0 / (r + 1))
    val mix = ranked.zip(weights.map(_ / weights.sum)).toMap
    val cumulative = ranked.map(mix).scanLeft(0.0)(_ + _).tail
    def draw(): Int = ranked(math.min(ranked.size - 1, cumulative.indexWhere(_ > rnd.nextDouble() * cumulative.last)))

    val policy = LocalitySetPolicy(innerMru = true, sharingAware = true, mix, horizon = 1.0)
    val cfg = ServingConfig(HddEff, PoolBytes, policy, W2v.computePerModel, W2v.inputBytes,
      ProbeRounds, PageBytes, W2v.pinnedPerModel)
    val engine = new InferenceEngine(store, cfg, tensorToModel)

    var failed = 0
    val loop = Timing.closedLoop(Timing.WarmupSeconds, seconds) { i =>
      val reqs = Vector.fill(RequestsPerRound)(draw())
      val (ms, rep) = Timing.millis(tr.span("op", i)(
        tr.span("serving.serve_all", i)(engine.serveAll(reqs, modelTensors))))
      val expected = reqs.map(m => inputPages + ProbeRounds * pagesPerModel(m)).sum
      if (rep.hits + rep.misses != expected) {
        failed += 1
        System.err.println(s"round $i: ${rep.hits + rep.misses} accesses, expected $expected")
      }
      Some((ms, reqs, rep))
    }
    val rounds = loop.measured

    // Evictions and read time are not visible through serveAll: replay a
    // sample of rounds through a pool built here from the same pages,
    // policy and capacity, and require the engine's exact hit/miss counts.
    val effective = math.max(PageBytes, PoolBytes - W2v.pinnedPerModel)
    val sample = loop.all.take(ReplayRounds)
    for (((_, reqs, rep), i) <- sample.zipWithIndex) {
      val trace = reqs.flatMap { m =>
        val input = (0 until inputPages).map(p => (-1 - p, PageMeta(PageBytes, "input", reqs.toSet)))
        val weights = modelTensors(m).flatMap(store.pagesOf).map { id =>
          val set = if (store.refCount(id) > 1) "shared" else s"weights-$m"
          (id.value, PageMeta(store.page(id).bytes, set, store.owners(id).map(tensorToModel)))
        }
        input ++ Vector.fill(ProbeRounds)(weights).flatten
      }
      val pool = new BufferPool(effective, policy, HddEff)
      tr.span("bufferpool.read", i)(trace.foreach { case (id, meta) => pool.read(id, meta) })
      if (pool.hits != rep.hits || pool.misses != rep.misses) {
        failed += 1
        System.err.println(s"replay of round $i: ${pool.hits}/${pool.misses} hits/misses, " +
          s"engine ${rep.hits}/${rep.misses}")
      }
      c.add("bufferpool.hits", pool.hits.toDouble)
      c.add("bufferpool.misses", pool.misses.toDouble)
      c.add("bufferpool.evictions", pool.evictions.toDouble)
      c.add("device.io_modelled_s", rep.ioSeconds)
    }
    val modelled = Stats.median(sample.map(_._3.totalSeconds))
    c.set("serving.modelled_round_s", modelled)
    Pipeline.recordDedup(ing.stats, c)
    Pipeline.recordStore(ing.index, store, c)
    c.set("model.max_accuracy_drop", ing.stats.map(_.accuracyDrop).max)

    val roundMs = rounds.map(_._1)
    val hits = rounds.map(_._3.hits).sum
    val accesses = hits + rounds.map(_._3.misses).sum
    val ratio = store.numPages.toDouble / Pipeline.plainPages(models, BlocksPerPage)
    if (setupErrs.nonEmpty) failed += 1
    Outcome(loop.all.size, failed, roundMs, Vector(setupS), ratio,
      Seq(Metric("serve_round_p50_ms", Stats.percentile(roundMs, 0.5), "ms"),
        Metric("serve_round_p95_ms", Stats.percentile(roundMs, 0.95), "ms"),
        Metric("serve_accesses_per_s", accesses / (roundMs.sum / 1e3), "1/s"),
        Metric("modelled_round_s", modelled, "sim_s"),
        Metric("hit_ratio", hits.toDouble / accesses, "ratio"),
        Metric("storage_ratio", ratio, "ratio"),
        Metric("dedup_pages", store.numPages, "count"),
        Metric("ops_failed_share", failed.toDouble / loop.all.size, "ratio")),
      c)
  }
}
