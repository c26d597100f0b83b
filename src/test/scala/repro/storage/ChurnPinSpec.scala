package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PagePacking.{Problem, twoStageReusing}
import repro.core.Detectors
import repro.model.{Model, ModelGen}
import scala.collection.mutable
import scala.util.Random

/** Pins an incremental write sequence end to end: a seeded run of 30 adds,
  * removes and updates (remove plus add of a fresh model) over a small FFNN
  * family, each followed by `fromDedup`, `twoStageReusing` against the
  * previous pages and a fresh `PageStore.load`, as a churning store runs
  * them. The pages reused, discarded and created, the store's page count,
  * the size of L and the packing's pages after every write were recorded
  * before the index's per-write path was made cheaper; any change to F, L,
  * the problem or the packing moves them.
  */
class ChurnPinSpec extends AnyFunSuite {
  import ChurnPinSpec._

  private val L = 4

  private def run(): Vector[Step] = {
    val pool = ModelGen.ffnnFamily(34, w1Blocks = 22, w2Blocks = 5, blockDim = 16, seed = 5L)
    val idx = Detectors.proposed(16, w = 0.3)
    val live = mutable.ArrayBuffer.from(pool.take(3))
    live.foreach(m => idx.addModel(m.tensors, None))
    var packing = twoStageReusing(Problem.fromDedup(idx, L), Vector.empty)
    var nextFresh = live.size
    val rnd = new Random(2024)
    Vector.tabulate(30) { _ =>
      val kind =
        if (live.size <= 2) 'A'
        else if (live.size >= 5) 'R'
        else "ARU"(rnd.nextInt(3))
      val victim: Option[Model] = if (kind == 'A') None else Some(live(rnd.nextInt(live.size)))
      victim.foreach { m => m.tensors.foreach(t => idx.removeTensor(t.id)); live -= m }
      if (kind != 'R') {
        val m = pool(nextFresh); nextFresh += 1
        idx.addModel(m.tensors, None); live += m
      }
      val prev = packing.distinctPages
      val problem = Problem.fromDedup(idx, L)
      packing = twoStageReusing(problem, prev)
      val store = new PageStore(1L << 20)
      store.load(packing, problem)
      val next = packing.distinctPages
      val (p, n) = (prev.toSet, next.toSet)
      Step(kind, n.count(p), p.count(!n(_)), n.count(!p(_)), store.numPages, idx.numDistinct,
        packing.pages.hashCode)
    }
  }

  test("30 seeded FFNN writes reuse, discard and create the recorded pages at every step") {
    assert(run() == Expected)
  }
}

object ChurnPinSpec {
  /** One write: its kind (Add, Remove, Update), the page diff against the
    * previous packing, the reloaded store's page count, the size of L and a
    * hash of the packing's pages in order (items are indices into L).
    */
  final case class Step(kind: Char, reused: Int, discarded: Int, created: Int, numPages: Int,
                        distinct: Int, pagesHash: Int)

  val Expected: Vector[Step] = Vector(
    Step('A', 12, 0, 2, 14, 42, -1922228651),
    Step('U', 12, 2, 2, 14, 47, 902321121),
    Step('R', 12, 2, 0, 12, 47, 500813687),
    Step('U', 10, 2, 2, 12, 52, 1464055062),
    Step('U', 10, 2, 2, 12, 57, -561052855),
    Step('U', 10, 2, 2, 12, 62, -1305017814),
    Step('A', 12, 0, 2, 14, 67, 1510429406),
    Step('U', 12, 2, 2, 14, 72, -47609765),
    Step('R', 12, 2, 0, 12, 72, 1391783988),
    Step('A', 12, 0, 2, 14, 77, -859835894),
    Step('R', 12, 2, 0, 12, 77, -1667989853),
    Step('A', 12, 0, 2, 14, 82, 1184573181),
    Step('A', 14, 0, 2, 16, 87, 1952098614),
    Step('R', 14, 2, 0, 14, 87, -275349005),
    Step('R', 12, 2, 0, 12, 87, 1401782018),
    Step('R', 10, 2, 0, 10, 87, -846042975),
    Step('A', 10, 0, 2, 12, 92, 954099623),
    Step('A', 12, 0, 2, 14, 97, 1438141956),
    Step('U', 12, 2, 2, 14, 102, -2143784668),
    Step('A', 14, 0, 2, 16, 107, 65533470),
    Step('R', 14, 2, 0, 14, 107, -812033978),
    Step('R', 12, 2, 0, 12, 107, 1098476370),
    Step('U', 10, 2, 2, 12, 112, 1884234336),
    Step('U', 10, 2, 2, 12, 117, -1806683356),
    Step('A', 12, 0, 2, 14, 122, -1472039911),
    Step('R', 12, 2, 0, 12, 122, 1002493537),
    Step('R', 10, 2, 0, 10, 122, 1534733051),
    Step('A', 10, 0, 2, 12, 127, 382112869),
    Step('R', 10, 2, 0, 10, 127, 387169162),
    Step('A', 10, 0, 2, 12, 132, -1635529594))
}
