package repro.perfbench

import scala.collection.mutable

/** One reported number with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Counts a workload records while it runs; they feed the per-layer metrics. */
final class Counters {
  private val values = mutable.LinkedHashMap.empty[String, Double]
  def add(name: String, v: Double): Unit = values(name) = values.getOrElse(name, 0.0) + v
  def set(name: String, v: Double): Unit = values(name) = v
  def apply(name: String): Double = values.getOrElse(name, 0.0)
}

/** What one workload run produced.
  *
  * @param attempted  operations attempted in the measured phase
  * @param failed     operations whose post-state failed a correctness check
  * @param opMillis   wall time of every measured operation, in order
  * @param setupSeconds wall time of every set-up repetition
  * @param storageRatio dedup pages over no-dedup pages of the served store
  * @param details    the workload's own end-to-end figures (printed, not gated)
  */
final case class Outcome(attempted: Int, failed: Int, opMillis: Vector[Double],
                         setupSeconds: Vector[Double], storageRatio: Double,
                         details: Seq[Metric], counters: Counters)

object Stats {
  /** Nearest-rank percentile, `q` in (0, 1]. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(q * s.size).toInt - 1)))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)
}

object Report {

  /** Every workload reports these; BENCHMARK.json lists them as `end_to_end`.
    * The median operation time is printed with the details but not gated:
    * on a shared host it flips between the host's fast and slow phases from
    * run to run (see README.md), while the 95th percentile stays put.
    */
  def endToEnd(o: Outcome): Seq[Metric] = Seq(
    Metric("setup_s", Stats.median(o.setupSeconds), "s"),
    Metric("op_p95_ms", Stats.percentile(o.opMillis, 0.95), "ms"),
    Metric("storage_ratio", o.storageRatio, "ratio"))

  /** Every workload reports these in a traced run; a layer the workload
    * does not use reads 0. BENCHMARK.json lists them as `per_layer`.
    */
  def perLayer(t: Tracer, c: Counters): Seq[Metric] = {
    def self(span: String) = t.selfSeconds(span)
    val readS = self("bufferpool.read")
    val measured = t.totalSeconds("op")
    Seq(
      Metric("model.gen_s", self("model.gen"), "s"),
      Metric("model.labels_s", self("model.labels"), "s"),
      Metric("model.labels_calls", t.calls("model.labels"), "count"),
      Metric("model.gate_evals", t.calls("model.gate_eval"), "count"),
      Metric("model.gate_eval_s", self("model.gate_eval"), "s"),
      Metric("model.max_accuracy_drop", c("model.max_accuracy_drop"), "ratio"),
      Metric("core.add_model_self_s", self("core.add_model"), "s"),
      Metric("core.probes", c("core.probes"), "count"),
      Metric("core.probe_s", c("core.probe_s"), "s"),
      Metric("core.merge_ratio",
        if (c("core.blocks") == 0) 0.0 else c("core.merged") / c("core.blocks"), "ratio"),
      Metric("core.gate_stopped_models", c("core.gate_stopped_models"), "count"),
      Metric("core.remove_tensor_s", self("core.remove_tensor"), "s"),
      Metric("core.distinct_blocks", c("core.distinct_blocks"), "count"),
      Metric("core.from_dedup_s", self("core.from_dedup"), "s"),
      Metric("core.pack_two_stage_s", self("core.pack_two_stage"), "s"),
      Metric("core.pack_reusing_s", self("core.pack_reusing"), "s"),
      Metric("core.pages_reused", c("core.pages_reused"), "count"),
      Metric("core.pages_discarded", c("core.pages_discarded"), "count"),
      Metric("core.pages_created", c("core.pages_created"), "count"),
      Metric("storage.load_s", self("storage.load"), "s"),
      Metric("storage.pages", c("storage.pages"), "count"),
      Metric("storage.shared_pages", c("storage.shared_pages"), "count"),
      Metric("serving.serve_all_s", self("serving.serve_all"), "s"),
      Metric("serving.rounds", t.calls("serving.serve_all"), "count"),
      Metric("serving.modelled_round_s", c("serving.modelled_round_s"), "sim_s"),
      Metric("bufferpool.hits", c("bufferpool.hits"), "count"),
      Metric("bufferpool.misses", c("bufferpool.misses"), "count"),
      Metric("bufferpool.evictions", c("bufferpool.evictions"), "count"),
      Metric("bufferpool.read_s", readS, "s"),
      Metric("bufferpool.reads_per_s",
        if (readS == 0) 0.0 else (c("bufferpool.hits") + c("bufferpool.misses")) / readS, "1/s"),
      Metric("device.io_modelled_s", c("device.io_modelled_s"), "sim_s"),
      Metric("trace.layer_share", if (measured == 0) 0.0 else t.layerSelfSecondsUnder("op") / measured,
        "ratio"))
  }

  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  def metricsJson(ms: Seq[Metric]): String =
    ms.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
      .mkString("{", ", ", "}")
}
