package repro.bufferpool

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.device.StorageDevice

/** The pool keeps one recency list per locality set and each frame's Eq. 6
  * cost from admission. This spec drives random traces through it and
  * through the scan-based pool it replaced ([[ScanBufferPool]]) and requires
  * the same hits, misses, evictions, I/O seconds (`==` on `Double`), bytes
  * in use and residency of every page after every access.
  */
class BufferPoolIdentitySpec extends AnyFunSuite {
  import BufferPoolIdentitySpec._

  private val MB = 1L << 20

  private val policyGen: Gen[Policy] = for {
    n <- Gen.choose(1, 6)
    rates <- Gen.listOfN(n, Gen.oneOf(Gen.const(0.0), Gen.const(0.25), Gen.choose(0.0, 2.0)))
    horizon <- Gen.oneOf(Gen.const(0.0), Gen.const(1.0), Gen.choose(0.0, 3.0))
    kind <- Gen.choose(0, 5)
  } yield {
    // Model 0 is never given a rate: an unknown sharer counts as rate 0.
    val r = rates.zipWithIndex.map { case (x, i) => (i + 1) -> x }.toMap
    kind match {
      case 0 => Lru
      case 1 => Mru
      case k => LocalitySetPolicy(innerMru = k % 2 == 1, sharingAware = k >= 4, r, horizon)
    }
  }

  /** `uniform` gives every page the same size, sharers and cleanliness, so
    * costs tie across sets and recency alone picks the victim.
    */
  private def metaGen(uniform: Boolean, sets: Int): Gen[PageMeta] =
    if (uniform) Gen.choose(0, sets - 1).map(s => PageMeta(4 * MB, s"set-$s", Set(1, 2)))
    else for {
      mb <- Gen.frequency(9 -> Gen.choose(1, 12), 1 -> Gen.choose(40, 80)) // some exceed the pool
      s <- Gen.choose(0, sets - 1)
      sharers <- Gen.containerOf[Set, Int](Gen.choose(0, 6))
      dirty <- Gen.frequency(4 -> Gen.const(false), 1 -> Gen.const(true))
    } yield PageMeta(mb * MB, s"set-$s", sharers, dirty)

  private def opGen(pages: Int, metas: Vector[PageMeta], fresh: Gen[PageMeta]): Gen[Op] =
    Gen.choose(-2, pages - 1).flatMap { id =>
      Gen.frequency(
        // Mostly a page's own descriptor; sometimes a different one, which a
        // cached page must ignore and a re-admitted page must take.
        16 -> Gen.const(Read(id, metas(id + 2))),
        3 -> fresh.map(Read(id, _)),
        1 -> Gen.const(Discard(id)))
    }

  private val caseGen: Gen[Case] = for {
    policy <- policyGen
    capacityMb <- Gen.choose(1, 48)
    uniform <- Gen.frequency(3 -> Gen.const(false), 1 -> Gen.const(true))
    sets <- Gen.choose(1, 5)
    pages <- Gen.choose(1, 40)
    metas <- Gen.listOfN(pages + 2, metaGen(uniform, sets))
    n <- Gen.choose(0, 400)
    ops <- Gen.listOfN(n, opGen(pages, metas.toVector, metaGen(uniform, sets)))
  } yield Case(policy, capacityMb * MB, pages, ops.toVector)

  /** Deterministic property harness: case i is drawn from seed i. */
  private def forAll[A](g: Gen[A], n: Int)(body: A => Unit): Unit =
    (0 until n).foreach(i => body(g.pureApply(Gen.Parameters.default, Seed(i.toLong))))

  private def sameState(c: Case, step: Int, got: BufferPool, want: ScanBufferPool): Unit = {
    def where = s"${c.policy.name}, capacity ${c.capacityBytes / MB} MB, op $step: ${c.ops(step)}"
    assert(got.hits == want.hits && got.misses == want.misses, s"hits/misses, $where")
    assert(got.evictions == want.evictions, s"evictions, $where")
    assert(got.ioSeconds == want.ioSeconds, s"ioSeconds, $where")
    assert(got.usedBytes == want.usedBytes, s"usedBytes, $where")
    assert((-2 until c.pages).forall(id => got.cached(id) == want.cached(id)), s"residency, $where")
  }

  private def replay(c: Case, dev: StorageDevice): Unit = {
    val got = new BufferPool(c.capacityBytes, c.policy, dev)
    val want = new ScanBufferPool(c.capacityBytes, c.policy, dev)
    for ((op, step) <- c.ops.zipWithIndex) {
      op match {
        case Read(id, meta) => assert(got.read(id, meta) == want.read(id, meta))
        case Discard(id) => got.discard(id); want.discard(id)
      }
      sameState(c, step, got, want)
    }
  }

  test("property: every policy evicts exactly as the scan-based pool, access by access") {
    val dev = StorageDevice("T", seekSeconds = 0.001, readMBps = 100, writeMBps = 70)
    forAll(caseGen, n = 400)(replay(_, dev))
  }

  test("equal costs across sets: the oldest candidate goes, as in the scan-based pool") {
    val dev = StorageDevice("T", seekSeconds = 0.001, readMBps = 100, writeMBps = 70)
    val rates = Map(1 -> 0.5, 2 -> 0.5)
    for (innerMru <- Seq(false, true); aware <- Seq(false, true)) {
      val policy = LocalitySetPolicy(innerMru, aware, rates, horizon = 1.0)
      val pool = new BufferPool(12 * MB, policy, dev)
      val ref = new ScanBufferPool(12 * MB, policy, dev)
      // Three identical pages in three sets: every candidate costs the same.
      val trace = Seq(3 -> "c", 1 -> "a", 2 -> "b", 3 -> "c", 4 -> "a", 5 -> "b")
      for ((id, set) <- trace) {
        val meta = PageMeta(4 * MB, set, Set(1, 2))
        pool.read(id, meta); ref.read(id, meta)
        assert((1 to 5).forall(i => pool.cached(i) == ref.cached(i)), s"${policy.name} after page $id")
      }
      // Page 1 (set "a") is the oldest candidate when page 4 arrives.
      assert(!pool.cached(1) && pool.evictions == 2, policy.name)
    }
  }

  test("all six policies are drawn") {
    val names = (0 until 400).map(i => policyGen.pureApply(Gen.Parameters.default, Seed(i.toLong)).name).toSet
    assert(names == Set("LRU", "MRU", "LocalitySet-L", "LocalitySet-M", "Optimized-L", "Optimized-M"))
  }
}

object BufferPoolIdentitySpec {
  sealed trait Op
  final case class Read(id: Int, meta: PageMeta) extends Op
  final case class Discard(id: Int) extends Op
  final case class Case(policy: Policy, capacityBytes: Long, pages: Int, ops: Vector[Op])
}
