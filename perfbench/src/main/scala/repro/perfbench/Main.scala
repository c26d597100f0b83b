package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

/** Runs one workload and prints its result as the last line of stdout:
  * `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
  * the end-to-end metrics untraced and the per-layer metrics traced.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
  * or `Main --self-test`.
  */
object Main {

  val Workloads: Map[String, (Long, Double, Tracer) => Outcome] = Map(
    "serve-w2v12" -> ServeW2v12.run,
    "churn-ffnn" -> ChurnFfnn.run)

  def main(args: Array[String]): Unit = {
    if (args.sameElements(Array("--self-test"))) sys.exit(if (SelfTest.run()) 0 else 1)
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = { System.err.println(msg); sys.exit(2) }
    if (args.length % 2 != 0 || opts.size * 2 != args.length) fail(s"bad arguments: ${args.mkString(" ")}")
    val run = opts.get("workload").flatMap(Workloads.get)
      .getOrElse(fail(s"--workload must be one of ${Workloads.keys.toSeq.sorted.mkString(", ")}"))
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(fail("--seed <integer> is required"))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0)
      .getOrElse(fail("--seconds <positive number> is required"))
    val traced = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case other => fail(s"--trace must be 0 or 1, not $other")
    }

    val tracer = new Tracer(traced)
    val (wall, outcome) = Timing.seconds(tracer.span("run")(run(seed, seconds, tracer)))
    val metrics =
      if (traced) Report.perLayer(tracer, outcome.counters) :+ Metric("trace.wall_s", wall, "s")
      else Report.endToEnd(outcome)
    val correct = outcome.failed == 0
    if (traced) opts.get("out").foreach { dir =>
      val file = Paths.get(dir).resolve(s"trace-${opts("workload")}-seed$seed.json")
      write(file, s"""{"workload": "${opts("workload")}", "seed": $seed, "wall_s": ${Report.num(wall)},""" +
        s""" "metrics": ${Report.metricsJson(metrics)},\n"spans": ${tracer.spansJson}}\n""")
      System.err.println(s"trace written to $file")
    }
    println(s"""{"workload": "${opts("workload")}", "seed": $seed, "ops": ${outcome.attempted}, """ +
      s""""details": ${Report.metricsJson(outcome.details)}}""")
    println(s"""{"correct": $correct, "attempted": ${outcome.attempted}, "failed": ${outcome.failed}, """ +
      s""""metrics": ${Report.metricsJson(metrics)}}""")
  }

  private def write(file: Path, text: String): Unit = {
    Files.createDirectories(file.toAbsolutePath.getParent)
    Files.write(file, text.getBytes(StandardCharsets.UTF_8))
  }
}
