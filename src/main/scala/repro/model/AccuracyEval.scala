package repro.model

import repro.core.{BlockId, BlockRef}
import repro.model.ModelGen.{EmbeddingFamily, EmbeddingShape}
import scala.util.Random

/** Forward-pass validation accuracy for embedding-classifier models.
  *
  * Substitutes the paper's IMDB/Yelp/civil-comments AUC measurements
  * (DESIGN.md §2): a validation example is a small "bag of words" whose rows
  * are drawn preferentially from *hot* (high-magnitude) block-rows; its
  * ground-truth label is the sign of the model's ORIGINAL logit plus label
  * noise. A model's accuracy is real agreement of its current (possibly
  * deduplicated) forward pass with those labels — so replacing a hot block
  * by a similar-but-different representative genuinely moves logits on most
  * examples, while cold-block replacements barely matter. This is the
  * mechanism behind the paper's magnitude-aware ordering.
  *
  * Every block-data `lookup` passed in must be pure: a forward pass calls it
  * exactly once per block that some validation example touches (in no
  * promised order) and reuses the result for every example reading it.
  */
final class AccuracyEval(family: EmbeddingFamily, numExamples: Int = 1500,
                         wordsPerExample: Int = 8, seed: Long = 1234L) {

  private val shape: EmbeddingShape = family.shape

  /** Validation rows: each example is a set of vocabulary row indices. */
  val examples: Array[Array[Int]] = {
    val rnd = new Random(seed)
    // Sample block-rows proportionally to hotness, then a uniform row inside.
    val cum = family.hot.scanLeft(0.0)(_ + _).tail
    val total = cum.last
    Array.fill(numExamples) {
      Array.fill(wordsPerExample) {
        val u = rnd.nextDouble() * total
        var lo = 0; var hi = cum.length - 1
        while (lo < hi) { val mid = (lo + hi) / 2; if (cum(mid) < u) lo = mid + 1 else hi = mid }
        lo * shape.rowsPerBlock + rnd.nextInt(shape.rowsPerBlock)
      }
    }
  }

  /** Block-rows read by at least one validation example, ascending. */
  private val touchedRows: Array[Int] =
    examples.flatten.map(_ / shape.rowsPerBlock).distinct.sorted

  /** Block data of every touched block of `tensorId`, resolved once, at slot
    * `row * colBlocks + col`; untouched slots stay null.
    */
  private def resolve(tensorId: Int, lookup: BlockRef => Array[Double]): Array[Array[Double]] = {
    val blocks = new Array[Array[Double]](shape.numBlocks)
    for (br <- touchedRows; bc <- 0 until shape.colBlocks)
      blocks(br * shape.colBlocks + bc) = lookup(BlockRef(tensorId, BlockId(br, bc)))
    blocks
  }

  /** The forward pass: every example's logit under `lookup` for the model's
    * primary tensor. Each logit sums `bias`, then words, then column blocks,
    * then columns, in that order.
    */
  private[model] def logits(model: Model, lookup: BlockRef => Array[Double]): Array[Double] = {
    val blocks = resolve(model.primary.id, lookup)
    val head = model.head
    val cpb = shape.colsPerBlock
    val out = new Array[Double](examples.length)
    var i = 0
    while (i < examples.length) {
      val example = examples(i)
      var acc = model.bias
      var w = 0
      while (w < example.length) {
        val row = example(w)
        val slot = (row / shape.rowsPerBlock) * shape.colBlocks
        val rowOff = (row % shape.rowsPerBlock) * cpb
        var bc = 0
        while (bc < shape.colBlocks) {
          val data = blocks(slot + bc)
          val headOff = bc * cpb
          var cIn = 0
          while (cIn < cpb) {
            acc += data(rowOff + cIn) * head(headOff + cIn)
            cIn += 1
          }
          bc += 1
        }
        w += 1
      }
      out(i) = acc
      i += 1
    }
    out
  }

  private def origLookup(model: Model): BlockRef => Array[Double] = {
    val m = ModelGen.blockData(Seq(model)); r => m(r)
  }

  /** Mean |logit| over the first 200 examples. */
  private def scaleOf(origLogits: Array[Double]): Double = {
    val ls = origLogits.take(200).map(math.abs)
    ls.sum / ls.length
  }

  /** Ground-truth labels for a model: original logits + per-model label noise.
    * Deterministic in (model id, labelNoise, seed).
    */
  def labels(model: Model, labelNoise: Double): Array[Boolean] = {
    val rnd = new Random(seed * 31L + model.id)
    val orig = logits(model, origLookup(model))
    val scale = scaleOf(orig)
    orig.map(l => l + rnd.nextGaussian() * labelNoise * scale > 0)
  }

  /** Typical |logit| magnitude, used to express label noise relatively. */
  def logitScale(model: Model): Double = scaleOf(logits(model, origLookup(model)))

  /** Accuracy of a (possibly deduplicated) model against fixed labels. */
  def accuracy(model: Model, lbls: Array[Boolean], lookup: BlockRef => Array[Double]): Double = {
    val ls = logits(model, lookup)
    var hits = 0
    var i = 0
    while (i < ls.length) {
      if ((ls(i) > 0) == lbls(i)) hits += 1
      i += 1
    }
    hits.toDouble / examples.length
  }
}
