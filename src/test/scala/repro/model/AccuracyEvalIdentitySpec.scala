package repro.model

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BlockId, BlockRef}
import repro.model.ModelGen._
import scala.util.Random

/** The forward pass resolves each touched block once and runs one kernel
  * over the resolved blocks. This spec checks it against the per-lookup
  * loop it replaced, kept here as the reference: every logit, label, scale
  * and accuracy must be equal bit for bit (`==` on `Double`), so no gate
  * decision, store or table can move.
  */
class AccuracyEvalIdentitySpec extends AnyFunSuite {
  import AccuracyEvalIdentitySpec.Case

  // -- reference: the per-lookup forward pass -----------------------------

  private def refLogit(shape: EmbeddingShape, example: Array[Int], tensorId: Int,
                       lookup: BlockRef => Array[Double], head: Array[Double], bias: Double): Double = {
    var out = bias
    var w = 0
    while (w < example.length) {
      val row = example(w)
      val br = row / shape.rowsPerBlock
      val rIn = row % shape.rowsPerBlock
      var bc = 0
      while (bc < shape.colBlocks) {
        val data = lookup(BlockRef(tensorId, BlockId(br, bc)))
        var cIn = 0
        while (cIn < shape.colsPerBlock) {
          out += data(rIn * shape.colsPerBlock + cIn) * head(bc * shape.colsPerBlock + cIn)
          cIn += 1
        }
        bc += 1
      }
      w += 1
    }
    out
  }

  private def origLookup(m: Model): BlockRef => Array[Double] = {
    val d = blockData(Seq(m)); r => d(r)
  }

  private def refLogitScale(ev: AccuracyEval, shape: EmbeddingShape, m: Model): Double = {
    val ls = ev.examples.take(200).map(ex =>
      math.abs(refLogit(shape, ex, m.primary.id, origLookup(m), m.head, m.bias)))
    ls.sum / ls.length
  }

  /** Recomputes the scale for every example, as the original did. */
  private def refLabels(ev: AccuracyEval, evalSeed: Long, shape: EmbeddingShape,
                        m: Model, labelNoise: Double): Array[Boolean] = {
    val rnd = new Random(evalSeed * 31L + m.id)
    ev.examples.map { ex =>
      val l = refLogit(shape, ex, m.primary.id, origLookup(m), m.head, m.bias)
      l + rnd.nextGaussian() * labelNoise * refLogitScale(ev, shape, m) > 0
    }
  }

  private def refAccuracy(ev: AccuracyEval, shape: EmbeddingShape, m: Model,
                          lbls: Array[Boolean], lookup: BlockRef => Array[Double]): Double = {
    var hits = 0
    for (i <- ev.examples.indices)
      if ((refLogit(shape, ev.examples(i), m.primary.id, lookup, m.head, m.bias) > 0) == lbls(i)) hits += 1
    hits.toDouble / ev.examples.length
  }

  // -- cases ----------------------------------------------------------------

  private val caseGen: Gen[Case] = for {
    rowBlocks <- Gen.choose(1, 10)
    colBlocks <- Gen.choose(1, 4)
    rowsPerBlock <- Gen.choose(1, 4)
    colsPerBlock <- Gen.choose(1, 5)
    familySeed <- Gen.choose(0L, 1000L)
    numExamples <- Gen.choose(1, 260) // either side of the scale's 200 examples
    words <- Gen.choose(1, 10)
    evalSeed <- Gen.choose(0L, 1000L)
    labelNoise <- Gen.oneOf(Gen.const(0.0), Gen.choose(0.0, 1.5))
    mergeShare <- Gen.oneOf(Gen.const(0.0), Gen.const(1.0), Gen.choose(0.0, 1.0))
    lookupSeed <- Gen.choose(0L, 1000L)
  } yield Case(EmbeddingShape(rowBlocks, colBlocks, rowsPerBlock, colsPerBlock, 1L << 20),
    familySeed, numExamples, words, evalSeed, labelNoise, mergeShare, lookupSeed)

  /** Deterministic property harness: case i is drawn from seed i. */
  private def forAll[A](g: Gen[A], n: Int)(body: A => Unit): Unit =
    (0 until n).foreach(i => body(g.pureApply(Gen.Parameters.default, Seed(i.toLong))))

  /** A dedup-style assignment: each block of `m` keeps its own data or is
    * replaced by a representative, some block of the base model `rep`
    * (usually the one at the same position). Fixed up front, so pure.
    */
  private def dedupLookup(m: Model, rep: Model, share: Double, seed: Long): BlockRef => Array[Double] = {
    val rnd = new Random(seed)
    val reps = rep.primary.blocks
    val assigned = m.primary.blocks.zipWithIndex.map { case (b, i) =>
      val data =
        if (rnd.nextDouble() >= share) b.data
        else if (rnd.nextInt(4) > 0) reps(i).data
        else reps(rnd.nextInt(reps.size)).data
      b.ref -> data
    }.toMap
    r => assigned(r)
  }

  test("property: logits, labels, scale and accuracy equal the per-lookup reference bit for bit") {
    forAll(caseGen, n = 40) { c =>
      val fam = EmbeddingFamily(c.shape, c.familySeed)
      val base = fam.model(0, Variant("base", 0.0, 0.0, 0.0, 0.0))
      val m = fam.model(1, Variant("tuned", 0.01, 0.3, 1.0, c.labelNoise))
      val ev = new AccuracyEval(fam, c.numExamples, c.words, c.evalSeed)
      val lookup = dedupLookup(m, base, c.mergeShare, c.lookupSeed)

      val got = ev.logits(m, lookup)
      val want = ev.examples.map(ex => refLogit(c.shape, ex, m.primary.id, lookup, m.head, m.bias))
      assert(got.indices.forall(i => got(i) == want(i)), s"$c: logits differ")

      assert(ev.logitScale(m) == refLogitScale(ev, c.shape, m), s"$c: scale differs")
      val lbls = ev.labels(m, c.labelNoise)
      assert(lbls.sameElements(refLabels(ev, c.evalSeed, c.shape, m, c.labelNoise)), s"$c: labels differ")
      assert(ev.accuracy(m, lbls, lookup) == refAccuracy(ev, c.shape, m, lbls, lookup), s"$c: accuracy differs")
      assert(ev.accuracy(m, lbls, origLookup(m)) == refAccuracy(ev, c.shape, m, lbls, origLookup(m)),
        s"$c: undeduplicated accuracy differs")
    }
  }

  test("the forward pass resolves each touched block exactly once per call") {
    val shape = EmbeddingShape(rowBlocks = 8, colBlocks = 3, rowsPerBlock = 2, colsPerBlock = 2)
    val fam = EmbeddingFamily(shape, 3L)
    val m = fam.model(0, Variant("m", 0.0, 0.0, 0.0, 0.1))
    val ev = new AccuracyEval(fam, numExamples = 50, wordsPerExample = 4, seed = 9L)
    val calls = scala.collection.mutable.Map.empty[BlockRef, Int].withDefaultValue(0)
    val orig = origLookup(m)
    ev.accuracy(m, ev.labels(m, 0.1), r => { calls(r) += 1; orig(r) })
    val touched = ev.examples.flatten.map(_ / shape.rowsPerBlock).toSet
    val expected = for (br <- touched; bc <- 0 until shape.colBlocks) yield BlockRef(m.primary.id, BlockId(br, bc))
    assert(calls.keySet == expected)
    assert(calls.values.forall(_ == 1))
  }
}

object AccuracyEvalIdentitySpec {
  final case class Case(shape: EmbeddingShape, familySeed: Long, numExamples: Int,
                        words: Int, evalSeed: Long, labelNoise: Double,
                        mergeShare: Double, lookupSeed: Long)
}
