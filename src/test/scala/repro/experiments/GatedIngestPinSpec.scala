package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ModelDedupStats

/** Pins the accuracy-gated ingest of the two gated scenarios the tables use.
  * Every model's stats except probe time are recorded from the per-lookup
  * forward pass the current one replaced; a single flipped label moves an
  * accuracy, a gate decision or a merge count, and fails here.
  */
class GatedIngestPinSpec extends AnyFunSuite {

  private def untimed(stats: Seq[ModelDedupStats]): Seq[ModelDedupStats] =
    stats.map(_.copy(probeNanos = 0L))

  test("word2vec-12 gated ingest reproduces every model's dedup stats exactly") {
    val b = Scenarios.word2vec(12)
    assert(untimed(b.stats) == Seq(
      ModelDedupStats(0, 0.9773333333333334, 0.936, 86, 512, true, 0L, 512),
      ModelDedupStats(1, 0.98, 0.9506666666666667, 454, 512, false, 0L, 512),
      ModelDedupStats(2, 0.9833333333333333, 0.9446666666666667, 454, 512, true, 0L, 512),
      ModelDedupStats(3, 0.99, 0.9533333333333334, 434, 512, true, 0L, 512),
      ModelDedupStats(4, 0.9813333333333333, 0.9633333333333334, 480, 512, false, 0L, 512),
      ModelDedupStats(5, 0.9813333333333333, 0.9646666666666667, 479, 512, false, 0L, 512),
      ModelDedupStats(6, 0.9786666666666667, 0.9306666666666666, 481, 512, true, 0L, 512),
      ModelDedupStats(7, 0.9846666666666667, 0.9393333333333334, 463, 512, true, 0L, 512),
      ModelDedupStats(8, 0.9793333333333333, 0.9433333333333334, 476, 512, true, 0L, 512),
      ModelDedupStats(9, 0.9793333333333333, 0.952, 490, 512, false, 0L, 512),
      ModelDedupStats(10, 0.9853333333333333, 0.9553333333333334, 482, 512, false, 0L, 512),
      ModelDedupStats(11, 0.9913333333333333, 0.956, 430, 512, true, 0L, 512)))
    assert(b.store.numPages == 208 && b.plainStore.numPages == 768)
  }

  test("text-classification gated ingest reproduces every model's dedup stats exactly") {
    val b = Scenarios.textClass
    assert(untimed(b.stats) == Seq(
      ModelDedupStats(0, 0.882, 0.8673333333333333, 101, 512, false, 0L, 512),
      ModelDedupStats(1, 0.856, 0.8506666666666667, 439, 512, false, 0L, 512),
      ModelDedupStats(2, 0.8446666666666667, 0.8373333333333334, 512, 512, false, 0L, 512),
      ModelDedupStats(3, 0.908, 0.9046666666666666, 408, 512, false, 0L, 512),
      ModelDedupStats(4, 0.9406666666666667, 0.9153333333333333, 494, 512, false, 0L, 512)))
    assert(b.store.numPages == 84 && b.plainStore.numPages == 320)
  }
}
