package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.bufferpool.LocalitySetPolicy
import repro.device.StorageDevice
import repro.serving.{InferenceEngine, ServingConfig, ServingReport}
import Scenarios._

/** Pins the modelled serving cost of a handful of serving-table cells.
  * Every report was recorded from the scan-based buffer pool and the
  * per-access page descriptors the current pool and engine replaced; the
  * modelled seconds and the hit and miss counts must be equal with `==`,
  * so a changed victim anywhere in a trace fails here.
  */
class ServingPinSpec extends AnyFunSuite {

  private def check(cell: String, got: ServingReport, totalSeconds: Double, ioSeconds: Double,
                    hits: Long, misses: Long): Unit =
    assert((got.totalSeconds, got.ioSeconds, got.hits, got.misses) ==
      ((totalSeconds, ioSeconds, hits, misses)), cell)

  test("Tables 1/2: word2vec-6 cells, SSD and HDD, dedup on and off, LocalitySet-L and Optimized-M") {
    val b = word2vec(6)
    def run(disk: StorageDevice, poolGb: Long, dedup: Boolean, opt: Boolean) =
      serve(b, b.modelIds, disk, poolGb * GB, dedup, opt, W2v.computePerModel, W2v.inputBytes,
        W2v.pinnedPerModel)
    check("SSD 15GB w/o dedup", run(SsdEff, 15, dedup = false, opt = false),
      534.954750720001, 132.95475072000102, 2748, 396)
    check("SSD 15GB dedup opt", run(SsdEff, 15, dedup = true, opt = true),
      441.61782976000006, 39.61782976000007, 2698, 118)
    check("HDD 10GB w/o dedup", run(HddEff, 10, dedup = false, opt = false),
      1468.5684057599963, 1066.5684057599963, 2748, 396)
    check("HDD 8GB dedup", run(HddEff, 8, dedup = true, opt = false),
      7986.486440960559, 7584.486440960559, 0, 2816)
    check("HDD 8GB dedup opt", run(HddEff, 8, dedup = true, opt = true),
      3480.504262079988, 3078.504262079988, 1673, 1143)
  }

  test("word2vec-12: the benchmark's HDD 8 GB Optimized-M cell and Table 3's SSD 15 GB cell") {
    val b = word2vec(12)
    def run(disk: StorageDevice, poolGb: Long) =
      serve(b, b.modelIds, disk, poolGb * GB, dedup = true, optimized = true, W2v.computePerModel,
        W2v.inputBytes, W2v.pinnedPerModel)
    check("HDD 8GB dedup opt", run(HddEff, 8),
      10777.491935680951, 9973.491935680951, 3313, 3703)
    check("SSD 15GB dedup opt", run(SsdEff, 15),
      877.8637504000004, 73.86375040000041, 6796, 220)
  }

  test("Table 6: text-classification cells, SSD and HDD, dedup on and off") {
    val b = textClass
    def run(disk: StorageDevice, poolGb: Long, dedup: Boolean, opt: Boolean) =
      serve(b, b.modelIds, disk, poolGb * GB, dedup, opt, Tc.computePerModel, Tc.inputBytes,
        Tc.pinnedPerModel)
    check("SSD 15GB w/o dedup", run(SsdEff, 15, dedup = false, opt = false),
      610.1241369600008, 110.12413696000078, 2272, 328)
    check("SSD 10GB dedup opt", run(SsdEff, 10, dedup = true, opt = true),
      535.58889792, 35.58889792000003, 2278, 106)
    check("HDD 8GB dedup", run(HddEff, 8, dedup = true, opt = false),
      6920.957271040367, 6420.957271040367, 0, 2384)
    check("HDD 8GB dedup opt", run(HddEff, 8, dedup = true, opt = true),
      2716.6308028799917, 2216.6308028799917, 1561, 823)
  }

  test("Tables 7/8: FFNN cells, including Optimized-L (innerMru = false) built directly") {
    val b = ffnn
    val ids = b.modelIds.take(2)
    val rates = ids.map(_ -> 1.0 / ids.size).toMap
    val policy = LocalitySetPolicy(innerMru = false, sharingAware = true, rates, horizon = 1.0)
    val cfg = ServingConfig(SsdEff, 13 * GB, policy, Ffnn.computePerModel, Ffnn.inputBytes,
      Ffnn.probeRounds, PageBytes, Ffnn.pinnedPerModel)
    check("Table 8, 2 models, SSD 13GB Optimized-L",
      new InferenceEngine(b.store, cfg, b.tensorToModel).serveAll(ids, b.modelTensors),
      93.3833468800002, 53.38334688000021, 309, 159)
    check("Table 7, HDD 9GB dedup", serve(b, b.modelIds, HddSeq, 9 * GB, dedup = true, optimized = false,
      Ffnn.computePerModel, Ffnn.inputBytes, Ffnn.pinnedPerModel, Ffnn.probeRounds),
      376.24121760000173, 316.24121760000173, 237, 465)
  }
}
