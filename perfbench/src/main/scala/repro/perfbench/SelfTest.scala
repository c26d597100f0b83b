package repro.perfbench

import repro.core.ModelDedupStats
import repro.experiments.{Scenarios, Tables}
import repro.model.ModelGen.EmbeddingShape
import repro.model.{AccuracyEval, ModelGen}

/** Oracle for the stage-by-stage ingest: run on the five text-classification
  * models at the 300x300 blocking (Tables 11/12), it must reproduce
  * `Scenarios.textClassFine` (dedup page count and every model's
  * `ModelDedupStats`) and Table 11's Two-Stage 300x300/64MB cell, which
  * shows that the workloads time the pipeline the tables use.
  */
object SelfTest {

  /** The `Scenarios.textClassFine` blocking, LSH width and page capacity. */
  private val Shape = EmbeddingShape(rowBlocks = 3334, colBlocks = 2, rowsPerBlock = 2,
    colsPerBlock = 8, blockVirtualBytes = 720_000L)
  private val BlocksPerPage = 88
  private val LshW = 0.08

  /** Stats without the probe timing, which differs run to run. */
  private def stable(s: ModelDedupStats) = s.copy(probeNanos = 0L)

  def run(): Boolean = {
    val (fam, models) = ModelGen.textClassFamily(Shape)
    val eval = new AccuracyEval(fam)
    val ing = Pipeline.ingest(models, Some(eval), id => ModelGen.textClassVariants(id).labelNoise,
      BlocksPerPage, LshW, new Tracer(false))
    val ref = Scenarios.textClassFine
    val table11 = Tables.table11()
    val col = table11.header.indexOf("Two-Stage")
    val cell = table11.rows.find(_.head == "text classification (300x300, 64MB)").map(_(col).toInt)
    val checks = Seq(
      s"dedup pages ${ing.store.numPages} == Scenarios.textClassFine ${ref.store.numPages}" ->
        (ing.store.numPages == ref.store.numPages),
      s"per-model ModelDedupStats equal Scenarios.textClassFine's" ->
        (ing.stats.map(stable) == ref.stats.map(stable)),
      s"Two-Stage pages ${ing.packing.numDistinctPages} == Table 11 cell ${cell.getOrElse("missing")}" ->
        cell.contains(ing.packing.numDistinctPages))
    checks.foreach { case (what, ok) => println(s"${if (ok) "PASS" else "FAIL"} $what") }
    ing.stats.foreach(s => println(s"  $s"))
    checks.forall(_._2)
  }
}
