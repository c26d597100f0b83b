package repro.core

/** Reference percentile for [[MagnitudeSpec]] and [[RefDedupIndex]]:
  * `Magnitude.percentile` as it was, with a boxed stable sort of |v|.
  */
object RefMagnitude {

  def percentile(v: Array[Double], p: Double): Double = {
    require(v.nonEmpty && p >= 0 && p <= 100)
    val abs = v.map(math.abs).sorted
    if (abs.length == 1) return abs(0)
    val rank = p / 100.0 * (abs.length - 1)
    val lo = rank.toInt
    val hi = math.min(lo + 1, abs.length - 1)
    val frac = rank - lo
    abs(lo) * (1 - frac) + abs(hi) * frac
  }

  def thirdQuartile(v: Array[Double]): Double = percentile(v, 75)
}
