package repro.core

import scala.util.Random

/** A locality-sensitive signature: equality of the full signature is the
  * collision predicate (the paper uses the signature directly as the index
  * search key).
  */
final case class Signature(values: Vector[Int]) {
  /** Stable string key for hash-map indexes. */
  def key: String = values.mkString(",")
}

/** Common interface for the paper's three hashing schemes (Sec. 4.2.2):
  * L2 LSH (proposed), MinHash over discretized values (Mistique approximate),
  * and exact content hashing (Mistique exact).
  */
trait BlockHasher {
  def signature(v: Array[Double]): Signature
}

/** p-stable (Gaussian) LSH for Euclidean distance [Datar et al. 2004]:
  * `h_i(v) = floor((a_i . v + b_i) / w)` with `a_i ~ N(0,1)^dim`,
  * `b_i ~ U[0, w)`. Two vectors collide on the full k-hash signature with
  * probability that decays monotonically in their L2 distance; `w` sets the
  * distance scale at which collisions become unlikely.
  *
  * Deterministic in (dim, k, w, seed) so index builds are reproducible.
  */
final class L2Lsh(val dim: Int, val k: Int, val w: Double, seed: Long) extends BlockHasher {
  require(dim > 0 && k > 0 && w > 0)

  private val rnd = new Random(seed)
  private val a: Array[Array[Double]] = Array.fill(k)(Array.fill(dim)(rnd.nextGaussian()))
  private val b: Array[Double] = Array.fill(k)(rnd.nextDouble() * w)

  override def signature(v: Array[Double]): Signature = {
    require(v.length == dim, s"vector dim ${v.length} != $dim")
    val out = new Array[Int](k)
    var i = 0
    while (i < k) {
      val ai = a(i)
      var dot = 0.0
      var j = 0
      while (j < dim) { dot += ai(j) * v(j); j += 1 }
      out(i) = math.floor((dot + b(i)) / w).toInt
      i += 1
    }
    Signature(out.toVector)
  }
}

/** MinHash over a discretized vector, modelling Mistique's approximate
  * deduplication: each value is first quantized into a bin of width
  * `binWidth`, the vector becomes the set `{(position, bin)}`, and `perms`
  * universal-hash permutations produce the signature. Deliberately the
  * faithful (and therefore expensive) formulation — the per-block
  * discretization plus `perms` passes over the set is exactly the overhead
  * the paper measures in Table 9.
  */
final class MinHashHasher(val dim: Int, val perms: Int, val binWidth: Double, seed: Long)
    extends BlockHasher {
  require(dim > 0 && perms > 0 && binWidth > 0)

  private val rnd = new Random(seed)
  private val LargePrime = 2147483647L // 2^31 - 1
  private val coefA: Array[Long] = Array.fill(perms)(1 + rnd.nextLong(LargePrime - 1))
  private val coefB: Array[Long] = Array.fill(perms)(rnd.nextLong(LargePrime))

  /** Discretize: item id encodes (position, quantized bin). */
  private def items(v: Array[Double]): Array[Long] = {
    val out = new Array[Long](v.length)
    var i = 0
    while (i < v.length) {
      val bin = math.floor(v(i) / binWidth).toLong
      out(i) = i.toLong * 1000003L + bin
      i += 1
    }
    out
  }

  override def signature(v: Array[Double]): Signature = {
    require(v.length == dim, s"vector dim ${v.length} != $dim")
    val set = items(v)
    val out = new Array[Int](perms)
    var p = 0
    while (p < perms) {
      var min = Long.MaxValue
      var i = 0
      while (i < set.length) {
        val h = (coefA(p) * (set(i) & 0x7fffffffL) + coefB(p)) % LargePrime
        if (h < min) min = h
        i += 1
      }
      out(p) = min.toInt
      p += 1
    }
    Signature(out.toVector)
  }
}

/** Bit-exact content hash: collision iff (modulo 64-bit hash collisions) the
  * blocks are identical. Models Mistique's exact deduplication.
  */
final class ExactHasher extends BlockHasher {
  override def signature(v: Array[Double]): Signature = {
    val h = TensorBlock.contentHash(v)
    Signature(Vector((h >>> 32).toInt, h.toInt))
  }
}
