package repro.perfbench

import repro.core.PagePacking.{Packing, Problem}
import repro.core.{BlockRef, DedupIndex, Detectors, ModelAccuracy, ModelDedupStats, PagePacking}
import repro.experiments.Scenarios
import repro.model.{AccuracyEval, Model}
import repro.storage.PageStore
import scala.collection.mutable

/** The ingest pipeline stage by stage, in the order `Scenarios.build` runs
  * it, with one span around each call into a layer.
  */
object Pipeline {

  final case class Ingested(index: DedupIndex, stats: Vector[ModelDedupStats],
                            problem: Problem, packing: Packing, store: PageStore)

  /** The accuracy gate's oracle. Implemented here rather than with
    * `Scenarios.EvalAdapter` so that each gate evaluation is a child span
    * of the `addModel` call that asked for it.
    */
  final class TracedGate(eval: AccuracyEval, model: Model, labels: Array[Boolean], tr: Tracer)
      extends ModelAccuracy {
    override def accuracy(lookup: BlockRef => Array[Double]): Double =
      tr.span("model.gate_eval")(eval.accuracy(model, labels, lookup))
  }

  /** Labels (when gated), Alg. 1 per model, page packing and store load.
    *
    * @param noise label noise of each model id; ignored without `eval`
    */
  def ingest(models: Vector[Model], eval: Option[AccuracyEval], noise: Int => Double,
             l: Int, lshW: Double, tr: Tracer): Ingested = {
    val labels = eval.map(ev => models.map(m => tr.span("model.labels")(ev.labels(m, noise(m.id)))))
    val idx = Detectors.proposed(models.head.primary.blocks.head.data.length, w = lshW)
    val stats = models.indices.toVector.map { i =>
      val gate = eval.map(ev => new TracedGate(ev, models(i), labels.get(i), tr))
      tr.span("core.add_model")(idx.addModel(models(i).tensors, gate))
    }
    val problem = tr.span("core.from_dedup")(Problem.fromDedup(idx, l))
    val packing = tr.span("core.pack_two_stage")(PagePacking.twoStage(problem))
    Ingested(idx, stats, problem, packing, load(packing, problem, tr))
  }

  def load(packing: Packing, problem: Problem, tr: Tracer, op: Int = -1): PageStore = {
    val store = new PageStore(Scenarios.PageBytes)
    tr.span("storage.load", op)(store.load(packing, problem))
    store
  }

  /** Pages the same models need without dedup, paged as `Scenarios.build`
    * pages its baseline store.
    */
  def plainPages(models: Seq[Model], l: Int): Int =
    PagePacking.twoStage(Scenarios.plainProblemOf(models, l)).numDistinctPages

  def recordDedup(stats: Seq[ModelDedupStats], c: Counters): Unit = {
    c.add("core.probes", stats.map(_.probes).sum)
    c.add("core.probe_s", stats.map(_.probeNanos).sum / 1e9)
    c.add("core.merged", stats.map(_.merged).sum)
    c.add("core.blocks", stats.map(_.total).sum)
    c.add("core.gate_stopped_models", stats.count(_.stoppedEarly))
  }

  def recordStore(idx: DedupIndex, store: PageStore, c: Counters): Unit = {
    c.set("core.distinct_blocks", idx.numDistinct)
    c.set("storage.pages", store.numPages)
    c.set("storage.shared_pages", store.allPages.count(p => store.refCount(p.id) > 1))
  }

  /** Pages of `next` that `prev` already had, pages dropped, pages new. */
  def pageDiff(prev: Seq[Set[Int]], next: Seq[Set[Int]]): (Int, Int, Int) = {
    val p = prev.toSet; val n = next.toSet
    (n.count(p), p.count(!n(_)), n.count(!p(_)))
  }

  /** Post-state invariants of a loaded store over the live models (ROADMAP
    * "Correctness and robustness"). Returns one message per violation.
    */
  def violations(live: Seq[Model], idx: DedupIndex, problem: Problem, packing: Packing,
                 store: PageStore): Seq[String] = {
    val errs = mutable.ArrayBuffer.empty[String]
    val mapping = idx.mapping
    val liveTensors = live.flatMap(_.tensors)
    val liveIds = liveTensors.map(_.id).toSet
    val unmapped = liveTensors.iterator.flatMap(_.blocks).count(b => !mapping.contains(b.ref))
    if (unmapped > 0) errs += s"$unmapped live blocks unmapped"
    if (mapping.keysIterator.exists(r => !liveIds(r.tensorId)))
      errs += "mapping still holds blocks of removed tensors"
    if (problem.tensors.keySet != liveIds) errs += "problem tensors != live tensors"
    for (t <- liveIds.toSeq.sorted if problem.tensors.contains(t) && !packing.coversExactly(problem, t))
      errs += s"tensor $t not exactly covered by its pages (constraint 5)"
    if (!packing.capacityRespected(problem.l)) errs += "a page exceeds capacity"
    if (store.numPages != packing.numDistinctPages)
      errs += s"store has ${store.numPages} pages, packing ${packing.numDistinctPages}"
    if (store.tensors != liveIds) errs += "store tensors != live tensors"
    val itemsOf = problem.tensors.map { case (t, items) => t -> items.toSet }
    for (t <- liveIds.toSeq.sorted if itemsOf.contains(t)) {
      val got = store.pagesOf(t).iterator.flatMap(id => store.page(id).items).toSet
      if (got != itemsOf(t)) errs += s"tensor $t: store pages hold other items than the tensor"
    }
    for (p <- store.allPages) {
      val owners = itemsOf.collect { case (t, items) if p.items.subsetOf(items) => t }.toSet
      if (store.owners(p.id) != owners)
        errs += s"page ${p.id.value}: refcount ${store.refCount(p.id)} != live owners ${owners.size}"
    }
    errs.toSeq
  }
}
