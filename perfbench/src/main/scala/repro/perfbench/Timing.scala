package repro.perfbench

/** Wall-clock helpers and the single-client closed loop. */
object Timing {

  def seconds[A](body: => A): (Double, A) = {
    val t0 = System.nanoTime()
    val r = body
    ((System.nanoTime() - t0) / 1e9, r)
  }

  def millis[A](body: => A): (Double, A) = {
    val (s, r) = seconds(body)
    (s * 1e3, r)
  }

  /** Warm-up before each measured closed loop: the first rounds of a
    * fresh JVM run several times slower than later ones, and churn writes
    * stay slow for about 2.5 s while the repacking code is compiled.
    */
  val WarmupSeconds = 3.0

  /** Operations of one closed loop: those run while the JIT warms up, and
    * those measured after it.
    */
  final case class Loop[A](warmup: Vector[A], measured: Vector[A]) {
    def all: Vector[A] = warmup ++ measured
  }

  /** Run `op(i)` for i = 0, 1, ... with one client: the next operation
    * starts when the previous one has finished. Operations started in the
    * first `warmupSeconds` after a full collection are kept apart; then the loop runs for
    * `budgetSeconds` more (at least one operation), or until `op` returns
    * None.
    */
  def closedLoop[A](warmupSeconds: Double, budgetSeconds: Double)(op: Int => Option[A]): Loop[A] = {
    // Collect the set-up's garbage now rather than in a full collection
    // inside one of the first operations.
    System.gc()
    val warm, measured = Vector.newBuilder[A]
    val warmEnd = System.nanoTime() + (warmupSeconds * 1e9).toLong
    var deadline = Long.MaxValue
    var i, nMeasured = 0
    var more = true
    while (more && (nMeasured == 0 || System.nanoTime() < deadline)) {
      if (deadline == Long.MaxValue && System.nanoTime() >= warmEnd)
        deadline = System.nanoTime() + (budgetSeconds * 1e9).toLong
      op(i) match {
        case Some(a) if deadline != Long.MaxValue => measured += a; nMeasured += 1; i += 1
        case Some(a) => warm += a; i += 1
        case None => more = false
      }
    }
    Loop(warm.result(), measured.result())
  }
}

/** Inputs derived from the workload seed.
  *
  * The model family that serve-w2v12 dedups is the tables' own (the
  * `ModelGen` and `AccuracyEval` default seeds, as `Scenarios` builds it)
  * at every seed: a different family, example set
  * or label noise moves the accuracy gate's stopping points, and with them
  * the page count, by more than the `storage_ratio` bound (see
  * perfbench/README.md). The seed drives the serving traffic, the
  * churn operations and the FFNN family, whose exact sharing does not
  * depend on it.
  */
object Seeds {
  /** FFNN family seed (`ModelGen.ffnnFamily`'s default 99 at seed 7). */
  def ffnn(seed: Long): Long = seed + 92L
  /** Request mix and operation sequence. */
  def requests(seed: Long): Long = seed * 1000003L + 11L
}
