package repro.model

import org.scalatest.funsuite.AnyFunSuite
import repro.model.ModelGen._

class ModelGenSpec extends AnyFunSuite {

  private val smallShape = EmbeddingShape(rowBlocks = 16, colBlocks = 2,
    rowsPerBlock = 4, colsPerBlock = 4, blockVirtualBytes = 1L << 20)

  test("EmbeddingShape derived dimensions") {
    assert(smallShape.vocab == 64)
    assert(smallShape.embDim == 8)
    assert(smallShape.blockDim == 16)
    assert(smallShape.numBlocks == 32)
  }

  test("word2vec family is deterministic in its seed") {
    val (_, a) = word2vecFamily(3, smallShape, seed = 5)
    val (_, b) = word2vecFamily(3, smallShape, seed = 5)
    for ((ma, mb) <- a.zip(b); (ba, bb) <- ma.primary.blocks.zip(mb.primary.blocks))
      assert(ba.sameContent(bb))
  }

  test("different seeds give different families") {
    val (_, a) = word2vecFamily(1, smallShape, seed = 5)
    val (_, b) = word2vecFamily(1, smallShape, seed = 6)
    assert(!a.head.primary.blocks.head.sameContent(b.head.primary.blocks.head))
  }

  test("word2vec models share most blocks approximately with the base") {
    val (fam, models) = word2vecFamily(2, smallShape)
    val base = fam.baseTensor(999, "base")
    for (m <- models) {
      val dists = m.primary.blocks.zip(base.blocks).map { case (a, b) => a.l2(b) }
      val near = dists.count(_ < 0.1)
      // trainDrift 0.004 over 16 dims => distance ~0.016 for drifted blocks;
      // strong divergence (scale 1.0) is far larger.
      assert(near >= (smallShape.numBlocks * 0.85).toInt,
        s"model ${m.name}: only $near/${smallShape.numBlocks} blocks near base")
      assert(dists.exists(_ > 0.5), s"model ${m.name} has no strongly diverged blocks")
    }
  }

  test("word2vec family produces the requested number of models with distinct ids") {
    val (_, models) = word2vecFamily(6, smallShape)
    assert(models.size == 6)
    assert(models.map(_.id).distinct.size == 6)
  }

  test("text classification: frozen models are bit-identical to the pretrained base") {
    val (fam, models) = textClassFamily(smallShape)
    val base = fam.baseTensor(42, "base")
    for (i <- Seq(0, 2)) { // tc1, tc3 frozen
      models(i).primary.blocks.zip(base.blocks).foreach { case (a, b) =>
        assert(a.sameContent(b), s"model ${models(i).name} block ${a.ref} differs from base")
      }
    }
  }

  test("text classification: trained models drift on every block") {
    val (fam, models) = textClassFamily(smallShape)
    val base = fam.baseTensor(42, "base")
    for (i <- Seq(1, 3, 4)) {
      val same = models(i).primary.blocks.zip(base.blocks).count { case (a, b) => a.sameContent(b) }
      assert(same == 0, s"model ${models(i).name} still has $same bit-identical blocks")
    }
  }

  test("text classification: strong-divergence ordering matches Table 4 (M4 > M2 > M5)") {
    val (fam, models) = textClassFamily(smallShape)
    val base = fam.baseTensor(42, "base")
    def farCount(m: Model) =
      m.primary.blocks.zip(base.blocks).count { case (a, b) => a.l2(b) > 0.5 }
    assert(farCount(models(3)) > farCount(models(1)))
    assert(farCount(models(1)) > farCount(models(4)))
  }

  test("ffnn family: W1 identical across models, W2 private") {
    val models = ffnnFamily(3, w1Blocks = 10, w2Blocks = 4, blockDim = 8)
    val w1s = models.map(_.tensors(0))
    for (m <- 1 until 3; i <- 0 until 10)
      assert(w1s(0).blocks(i).sameContent(w1s(m).blocks(i)))
    val w2a = models(0).tensors(1); val w2b = models(1).tensors(1)
    assert(!w2a.blocks.head.sameContent(w2b.blocks.head))
  }

  /** The family as it was generated before W1 was drawn once: every model
    * drew W1 from the same seed itself.
    */
  private def ffnnPerModel(numModels: Int, w1Blocks: Int, w2Blocks: Int, blockDim: Int,
                           seed: Long): Vector[Model] = {
    def tensor(tid: Int, name: String, nBlocks: Int, blockSeed: Long) =
      repro.core.Tensor.tabulate(tid, name, nBlocks, 1, blockDim, 8L << 20) { (r, _) =>
        val rnd = new scala.util.Random(blockSeed * 1000003L + r)
        Array.fill(blockDim)(rnd.nextGaussian())
      }
    (0 until numModels).toVector.map { i =>
      val w1 = tensor(i * 2, s"ffnn$i-W1", w1Blocks, blockSeed = seed)
      val w2 = tensor(i * 2 + 1, s"ffnn$i-W2", w2Blocks, blockSeed = seed + 1 + i)
      val rnd = new scala.util.Random(seed * 7L + i)
      Model(i, s"ffnn-$i", Vector(w1, w2), Array.fill(blockDim)(rnd.nextGaussian()), 0.0)
    }
  }

  test("ffnn family: equal to per-model generation, with no W1 array shared between models") {
    for (seed <- Seq(99L, 3L)) {
      val got = ffnnFamily(4, w1Blocks = 12, w2Blocks = 3, blockDim = 8, seed = seed)
      val want = ffnnPerModel(4, w1Blocks = 12, w2Blocks = 3, blockDim = 8, seed = seed)
      assert(got.map(m => (m.id, m.name, m.bias, m.head.toVector)) ==
        want.map(m => (m.id, m.name, m.bias, m.head.toVector)))
      for ((gm, wm) <- got.zip(want); (gt, wt) <- gm.tensors.zip(wm.tensors)) {
        assert((gt.id, gt.name, gt.rowBlocks, gt.colBlocks) == ((wt.id, wt.name, wt.rowBlocks, wt.colBlocks)))
        assert(gt.blocks.map(b => (b.ref, b.virtualBytes)) == wt.blocks.map(b => (b.ref, b.virtualBytes)))
        assert(gt.blocks.zip(wt.blocks).forall { case (a, b) => a.sameContent(b) }, gt.name)
      }
      val w1 = got.map(_.tensors(0).blocks.map(_.data))
      for (a <- w1.indices; b <- 0 until a; i <- w1(a).indices)
        assert(!(w1(a)(i) eq w1(b)(i)), s"models $a and $b share W1 block $i")
    }
  }

  test("ffnn family: tensor ids are globally unique") {
    val models = ffnnFamily(3, w1Blocks = 2, w2Blocks = 2, blockDim = 4)
    val ids = models.flatMap(_.tensors).map(_.id)
    assert(ids.distinct.size == ids.size)
  }

  test("allBlocks and blockData cover every logical block") {
    val models = ffnnFamily(2, w1Blocks = 3, w2Blocks = 2, blockDim = 4)
    val blocks = allBlocks(models)
    assert(blocks.size == 2 * (3 + 2))
    val data = blockData(models)
    assert(data.size == blocks.size)
    assert(blocks.forall(b => data(b.ref) eq b.data))
  }

  test("virtualBytes reflect paper-scale sizes") {
    val (_, models) = word2vecFamily(1, EmbeddingShape())
    // 512 blocks x 8 MB = 4 GB, the paper's word2vec model size.
    assert(models.head.virtualBytes == 512L * (8L << 20))
  }
}
