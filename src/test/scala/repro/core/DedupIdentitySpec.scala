package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.PagePacking._
import scala.collection.mutable
import scala.util.Random

/** [[DedupIndex]] computes each block's magnitude and band keys once and
  * keys its signature index by `(band, values)`; `Problem.fromDedup` groups
  * F in one pass. This spec replays random add/remove/re-add sequences
  * through it and through [[RefDedupIndex]], the index it replaced, under
  * all four detectors, and requires after every step the same F, groups,
  * L, stats (probe time aside), problem (owners included) and packings
  * (`==`).
  */
class DedupIdentitySpec extends AnyFunSuite {
  import DedupIdentitySpec._

  private val Dim = 16

  private def detectors(): Seq[(String, DedupIndex)] = Seq(
    "proposed" -> Detectors.proposed(Dim),
    "mistiqueExact" -> Detectors.mistiqueExact(),
    "mistiqueApprox" -> Detectors.mistiqueApprox(Dim),
    "enhancedPairwise" -> Detectors.enhancedPairwise())

  /** A block drawn around one of a few bases: an exact copy (so magnitudes
    * tie), a copy drifted by 0.004 to 0.2 (near duplicates, some colliding
    * on only some bands), all zeros, or unrelated noise.
    */
  private def blockData(bases: Vector[Array[Double]], kind: Int, base: Int, seed: Long): Array[Double] = {
    val rnd = new Random(seed)
    val b = bases(base % bases.size)
    kind match {
      case 0 => b.clone()
      case 1 => b.map(_ + rnd.nextGaussian() * 0.004)
      case 2 => b.map(_ + rnd.nextGaussian() * 0.05)
      case 3 => b.map(_ + rnd.nextGaussian() * 0.2)
      case 4 => new Array[Double](Dim)
      case _ => Array.fill(Dim)(rnd.nextGaussian())
    }
  }

  private val caseGen: Gen[Case] = for {
    nBases <- Gen.choose(1, 5)
    baseSeeds <- Gen.listOfN(nBases, Gen.choose(0L, 1000000L))
    scales <- Gen.listOfN(nBases, Gen.oneOf(0.05, 0.5, 1.0))
    nModels <- Gen.choose(1, 5)
    shapes <- Gen.listOfN(nModels, Gen.listOfN(2, Gen.zip(Gen.choose(1, 4), Gen.choose(1, 3))))
    twoTensors <- Gen.listOfN(nModels, Gen.oneOf(true, false))
    kinds <- Gen.listOfN(nModels * 24, Gen.zip(Gen.frequency(3 -> Gen.const(0), 2 -> Gen.const(1),
      2 -> Gen.const(2), 1 -> Gen.const(3), 1 -> Gen.const(4), 1 -> Gen.const(5)),
      Gen.choose(0, 4), Gen.choose(0L, 1000000L)))
    gateScales <- Gen.listOfN(nModels, Gen.oneOf(0.0, 0.02, 0.5))
    nOps <- Gen.choose(1, 14)
    ops <- Gen.listOfN(nOps, Gen.zip(Gen.frequency(3 -> Gen.const(true), 2 -> Gen.const(false)),
      Gen.choose(0, 100), Gen.oneOf(true, false)))
    l <- Gen.choose(1, 5)
  } yield {
    val bases = baseSeeds.zip(scales).toVector.map { case (s, sc) =>
      val rnd = new Random(s); Array.fill(Dim)(rnd.nextGaussian() * sc)
    }
    val draws = kinds.iterator
    val models = (0 until nModels).toVector.map { m =>
      val nt = if (twoTensors(m)) 2 else 1
      (0 until nt).toVector.map { t =>
        val (rows, cols) = shapes(m)(t)
        Tensor.tabulate(m * 2 + t, s"m$m-t$t", rows, cols, Dim, 8L) { (_, _) =>
          val (kind, base, seed) = draws.next()
          blockData(bases, kind, base, seed)
        }
      }
    }
    Case(models, gateScales.toVector, ops.toVector.map { case (add, pick, gated) => Op(add, pick, gated) }, l)
  }

  /** Deterministic property harness: case i is drawn from seed i. */
  private def cases(n: Int): Iterator[Case] =
    Iterator.range(0, n).map(i => caseGen.pureApply(Gen.Parameters.default, Seed(i.toLong)))

  /** A pure accuracy stand-in: falls with the L2 distance of the model's
    * current weights from its own, so merges can trip the gate.
    */
  private def oracle(tensors: Seq[Tensor], scale: Double): ModelAccuracy = new ModelAccuracy {
    def accuracy(lookup: BlockRef => Array[Double]): Double = {
      var drift = 0.0
      for (t <- tensors; b <- t.blocks) {
        val cur = lookup(b.ref)
        var s = 0.0; var i = 0
        while (i < cur.length) { val d = cur(i) - b.data(i); s += d * d; i += 1 }
        drift += math.sqrt(s)
      }
      1.0 - scale * drift
    }
  }

  /** The case's ops against the live set, from nothing live: `Left(m)`
    * removes model m, `Right((m, eval))` adds it, gated by `eval`.
    */
  private def steps(c: Case): Vector[Either[Int, (Int, Option[ModelAccuracy])]] = {
    val live = mutable.ArrayBuffer.empty[Int]
    c.ops.map { op =>
      val notLive = c.models.indices.filterNot(live.contains)
      if ((op.add && notLive.nonEmpty) || live.isEmpty) {
        val m = notLive(op.pick % notLive.size)
        live += m
        Right((m, if (op.gated) Some(oracle(c.models(m), c.gateScales(m))) else None))
      } else {
        val m = live(op.pick % live.size)
        live -= m
        Left(m)
      }
    }
  }

  private def sameIndex(where: String, got: DedupIndex, want: RefDedupIndex, refs: Seq[BlockRef]): Unit = {
    assert(got.mapping == want.mapping, s"mapping, $where")
    assert(got.numGroups == want.numGroups, s"numGroups, $where")
    assert(got.numDistinct == want.numDistinct, s"numDistinct, $where")
    val (gl, wl) = (got.distinct, want.distinct)
    assert(gl.map(_.ref) == wl.map(_.ref), s"distinct refs, $where")
    assert(gl.zip(wl).forall { case (a, b) => a.sameContent(b) }, s"distinct content, $where")
    assert(refs.forall(r => got.groupSizeOf(r) == want.groupSizeOf(r)), s"group sizes, $where")
  }

  private def replay(c: Case, name: String, got: DedupIndex, caseNo: Int): Unit = {
    val want = new RefDedupIndex(got.config)
    val refs = c.models.flatten.flatMap(_.blocks.map(_.ref))
    var prevPages = Vector.empty[Set[Int]]
    for ((op, step) <- steps(c).zipWithIndex) {
      val where = s"$name, case $caseNo, step $step"
      op match {
        case Right((m, eval)) =>
          val gs = got.addModel(c.models(m), eval)
          val ws = want.addModel(c.models(m), eval)
          assert(gs.copy(probeNanos = 0L) == ws.copy(probeNanos = 0L), s"stats, $where")
        case Left(m) =>
          for (t <- c.models(m))
            assert(got.removeTensor(t.id) == want.removeTensor(t.id), s"removeTensor ${t.id}, $where")
      }
      sameIndex(where, got, want, refs)
      val (pg, pw) = (Problem.fromDedup(got, c.l), RefDedupIndex.fromDedup(want, c.l))
      assert(pg == pw, s"problem, $where")
      assert(baseline(pg) == baseline(pw), s"baseline, $where")
      assert(greedy1(pg) == greedy1(pw), s"greedy1, $where")
      assert(greedy2(pg) == greedy2(pw), s"greedy2, $where")
      assert(twoStage(pg) == twoStage(pw), s"twoStage, $where")
      val reusing = twoStageReusing(pg, prevPages)
      assert(reusing == twoStageReusing(pw, prevPages), s"twoStageReusing, $where")
      prevPages = reusing.distinctPages
    }
  }

  test("property: every detector builds the same F, L, groups, stats, problem and packings as before") {
    for ((c, i) <- cases(150).zipWithIndex; (name, idx) <- detectors()) replay(c, name, idx, i)
  }

  test("the cases draw magnitude ties, partial band collisions, gate stops and re-adds") {
    val lsh = new L2Lsh(Dim, 12, 0.25, 17L) // Detectors.proposed's hasher
    var ties, partial, stops, readds = 0
    for (c <- cases(150)) {
      val blocks = c.models.flatten.flatMap(_.blocks)
      val mags = blocks.map(b => Magnitude.thirdQuartile(b.data))
      ties += mags.size - mags.distinct.size
      val bands = blocks.map(b => lsh.signature(b.data).values.grouped(3).toVector)
      for (x <- bands.indices; y <- 0 until x) {
        val same = bands(x).zip(bands(y)).count { case (a, b) => a == b }
        if (same > 0 && same < bands(x).size) partial += 1
      }
      val idx = Detectors.proposed(Dim)
      val seen = mutable.Set.empty[Int]
      steps(c).foreach {
        case Right((m, eval)) =>
          if (!seen.add(m)) readds += 1
          if (idx.addModel(c.models(m), eval).stoppedEarly) stops += 1
        case Left(m) => c.models(m).foreach(t => idx.removeTensor(t.id))
      }
    }
    assert(ties > 0 && partial > 0 && stops > 0 && readds > 0, (ties, partial, stops, readds))
  }
}

object DedupIdentitySpec {
  /** Add a model that is not live (the `pick`-th, modulo), gated when
    * `gated`, or remove a live one; an add when nothing is live.
    */
  final case class Op(add: Boolean, pick: Int, gated: Boolean)
  final case class Case(models: Vector[Vector[Tensor]], gateScales: Vector[Double], ops: Vector[Op], l: Int)
}
