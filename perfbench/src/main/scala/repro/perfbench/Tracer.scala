package repro.perfbench

import scala.collection.mutable

/** In-memory span recorder for one benchmark run.
  *
  * A span is opened around one call into a layer's public function, from
  * the benchmark's own code; the program under test is not instrumented.
  * Spans nest strictly because the benchmark runs on one thread, so a
  * span's self time is its duration minus the durations of its direct
  * children. When disabled, `span` only evaluates its body.
  */
final class Tracer(val enabled: Boolean) {

  private val names = mutable.ArrayBuffer.empty[String]
  private val parents = mutable.ArrayBuffer.empty[Int]
  private val opIds = mutable.ArrayBuffer.empty[Int]
  private val starts = mutable.ArrayBuffer.empty[Long]
  private val ends = mutable.ArrayBuffer.empty[Long]
  private var current = -1

  /** Time `body` as a span named `name`, tagged with a round or op id. */
  def span[A](name: String, op: Int = -1)(body: => A): A =
    if (!enabled) body
    else {
      val id = names.size
      names += name; parents += current; opIds += op
      starts += System.nanoTime(); ends += 0L
      val saved = current
      current = id
      try body
      finally { ends(id) = System.nanoTime(); current = saved }
    }

  private def duration(i: Int): Long = ends(i) - starts(i)

  private lazy val childNanos: Array[Long] = {
    val acc = new Array[Long](names.size)
    for (i <- names.indices if parents(i) >= 0) acc(parents(i)) += duration(i)
    acc
  }

  /** Total self seconds of every span named `name`. */
  def selfSeconds(name: String): Double =
    names.indices.iterator.filter(names(_) == name)
      .map(i => duration(i) - childNanos(i)).sum / 1e9

  /** Total wall seconds of every span named `name`, children included. */
  def totalSeconds(name: String): Double =
    names.indices.iterator.filter(names(_) == name).map(duration).sum / 1e9

  /** Number of spans named `name`. */
  def calls(name: String): Int = names.count(_ == name)

  /** Self seconds of every layer span that runs inside a span named `root`. */
  def layerSelfSecondsUnder(root: String): Double = {
    def under(i: Int): Boolean = {
      var p = parents(i)
      while (p >= 0 && names(p) != root) p = parents(p)
      p >= 0
    }
    names.indices.iterator.filter(i => Tracer.isLayer(names(i)) && under(i))
      .map(i => duration(i) - childNanos(i)).sum / 1e9
  }

  /** All spans as a JSON array, times in nanoseconds from the first span. */
  def spansJson: String = {
    val t0 = if (starts.isEmpty) 0L else starts.head
    names.indices.map { i =>
      s"""{"id":$i,"name":"${names(i)}","parent":${parents(i)},"op":${opIds(i)},""" +
        s""""start_ns":${starts(i) - t0},"end_ns":${ends(i) - t0}}"""
    }.mkString("[\n", ",\n", "\n]")
  }
}

object Tracer {
  /** Span-name prefixes of the program's layers; other spans are the
    * benchmark's own structure (runs, set-up, ops).
    */
  val Layers: Seq[String] = Seq("model", "core", "storage", "serving", "bufferpool", "device")

  def isLayer(name: String): Boolean = Layers.exists(l => name.startsWith(l + "."))
}
