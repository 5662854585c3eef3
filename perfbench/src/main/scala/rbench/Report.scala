package rbench

import rbench.Main.{Op, median}
import rbench.Tracer.Span

/** Per-layer metrics of a traced run, and the span file's rows.
  *
  * A layer's value for one operation sums that layer's spans inside the
  * operation; the reported value is the median over the traced operations
  * in which the layer ran. Counts the program returns or the checks derive
  * (rounds, repicks, η) are medians over every batch of the run.
  */
object Report {

  def layers(ops: Seq[Op], spans: Seq[Span], T: Int, cores: Int): Seq[(String, Double, String)] = {
    val byId = spans.map(s => s.id -> s).toMap
    val children = spans.filter(_.parent.isDefined).groupBy(_.parent.get)
    def subtree(id: Int): Seq[Span] = byId(id) +: children.getOrElse(id, Nil).flatMap(c => subtree(c.id))
    val traced = ops.filter(o => o.traced && o.span.isDefined)
    val opSpans = traced.map(o => subtree(o.span.get))

    /** Median over traced ops of `f` applied to the op's spans named `layer`. */
    def per(layer: String)(f: Seq[Span] => Double): Double =
      median(opSpans.flatMap { ss => val l = ss.filter(_.name == layer); if (l.isEmpty) None else Some(f(l)) })
    def wall(ss: Seq[Span]) = ss.map(_.wallS).sum
    def busy(ss: Seq[Span]) = ss.map(_.c.cpuNs).sum / 1e9 / math.max(1e-9, wall(ss) * cores)
    def mb(ss: Seq[Span])(f: Tracer.Counters => Long) = ss.map(s => f(s.c)).sum / 1e6
    def jobs(ss: Seq[Span]) = ss.map(_.c.jobs).sum.toDouble
    def stages(ss: Seq[Span]) = ss.map(_.c.stages).sum.toDouble

    val PL = "SparkRSLPA.propagateLabels"; val WR = "SparkRSLPA.withRecords"
    val EW = "SparkPostProcess.edgeWeights"; val T2 = "SparkPostProcess.chooseTau2"
    val T1 = "SparkPostProcess.chooseTau1"; val EX = "SparkPostProcess.extract"
    val CC = "ConnectedComponents.spark"; val UP = "SparkCorrection.update"
    val isExtract = spans.filter(_.name == EX).map(_.id).toSet
    val isTau1 = spans.filter(_.name == T1).map(_.id).toSet

    val batches = ops.filter(_.kind == "batch")
    def stat(k: String) = median(batches.flatMap(_.stats.get(k)))
    def opTime(kind: String, tr: Boolean) = median(ops.filter(o => o.kind == kind && o.traced == tr).map(_.seconds))

    Seq(
      (s"$PL.wall_s", per(PL)(wall), "s"),
      (s"$PL.s_per_iter", per(PL)(wall) / T, "s"),
      (s"$PL.jobs", per(PL)(jobs), "count"),
      (s"$PL.stages", per(PL)(stages), "count"),
      (s"$PL.shuffle_mb", per(PL)(mb(_)(_.shuffleBytes)), "MB"),
      (s"$PL.busy_frac", per(PL)(busy), "frac"),
      (s"$WR.wall_s", per(WR)(wall), "s"),
      (s"$WR.shuffle_mb", per(WR)(mb(_)(_.shuffleBytes)), "MB"),
      (s"$WR.busy_frac", per(WR)(busy), "frac"),
      (s"$EW.wall_s", per(EW)(wall), "s"),
      (s"$EW.shuffle_mb", per(EW)(mb(_)(_.shuffleBytes)), "MB"),
      (s"$EW.busy_frac", per(EW)(busy), "frac"),
      (s"$T2.wall_s", per(T2)(wall), "s"),
      (s"$T1.wall_s", per(T1)(wall), "s"),
      (s"$T1.probes", per(CC)(_.count(s => s.parent.exists(isTau1)).toDouble), "count"),
      (s"$T1.jobs", per(T1)(jobs), "count"),
      (s"$EX.wall_s", per(EX)(wall), "s"),
      (s"$EX.jobs", per(EX)(jobs), "count"),
      (s"$EX.stages", per(EX)(stages), "count"),
      (s"$EX.shuffle_mb", per(EX)(mb(_)(_.shuffleBytes)), "MB"),
      (s"$EX.driver_mb", per(EX)(mb(_)(_.resultBytes)), "MB"),
      (s"$CC.wall_s", per(CC)(wall), "s"),
      (s"$CC.jobs", per(CC)(jobs), "count"),
      (s"$CC.shuffle_mb", per(CC)(mb(_)(_.shuffleBytes)), "MB"),
      (s"$CC.calls", per(CC)(_.size.toDouble), "count"),
      (s"$CC.final_wall_s", per(CC)(ss => wall(ss.filter(_.parent.exists(isExtract)))), "s"),
      (s"$UP.wall_s", per(UP)(wall), "s"),
      (s"$UP.jobs", per(UP)(jobs), "count"),
      (s"$UP.stages", per(UP)(stages), "count"),
      (s"$UP.shuffle_mb", per(UP)(mb(_)(_.shuffleBytes)), "MB"),
      (s"$UP.driver_mb", per(UP)(mb(_)(_.resultBytes)), "MB"),
      (s"$UP.busy_frac", per(UP)(busy), "frac"),
      (s"$UP.gc_s", per(UP)(_.map(_.gcMs).sum / 1e3), "s"),
      (s"$UP.rounds", stat("rounds"), "count"),
      (s"$UP.repicked", stat("repicked"), "count"),
      (s"$UP.corrected_stat", stat("corrected_stat"), "count"),
      (s"$UP.eta", stat("eta"), "count"),
      (s"$UP.eta_local", stat("eta_local"), "count"),
      (s"$UP.eta_stat_ratio", stat("eta_stat_ratio"), "ratio"),
      ("spark.task_cpu_s", median(opSpans.map(ss => ss.head.c.cpuNs / 1e9)), "s"),
      ("spark.gc_s", median(opSpans.map(ss => ss.head.gcMs / 1e3)), "s"),
      ("trace.detect_traced_s", opTime("detect", tr = true), "s"),
      ("trace.detect_untraced_s", opTime("detect", tr = false), "s"),
      ("trace.update_traced_s", opTime("batch", tr = true), "s"),
      ("trace.update_untraced_s", opTime("batch", tr = false), "s"),
    )
  }

  /** Human-readable notes of a traced run: overhead, Fig. 9 ratio and the
    * per-call Hash-to-Min times.
    */
  def notes(ops: Seq[Op], spans: Seq[Span]): Seq[String] = {
    def opTime(kind: String, tr: Boolean) = median(ops.filter(o => o.kind == kind && o.traced == tr).map(_.seconds))
    def overhead(kind: String) = 100 * (opTime(kind, tr = true) / math.max(1e-9, opTime(kind, tr = false)) - 1)
    val prop = median(spans.filter(_.name == "SparkRSLPA.propagate").map(_.wallS))
    val upd = median(spans.filter(_.name == "SparkCorrection.update").map(_.wallS))
    val byId = spans.map(s => s.id -> s).toMap
    val cc = spans.filter(_.name == "ConnectedComponents.spark").map { s =>
      val where = s.parent.flatMap(byId.get).map(_.name).getOrElse("?")
      f"${if (where == "SparkPostProcess.chooseTau1") "probe" else "final"} ${s.wallS}%.3fs/${s.c.jobs}j"
    }
    Seq(
      f"tracing overhead: detect ${overhead("detect")}%+.1f%%, update ${overhead("batch")}%+.1f%% (traced vs untraced medians)",
      f"Fig. 9 ratio (information only): traced propagate / SparkCorrection.update = ${prop / math.max(1e-9, upd)}%.3f",
      s"ConnectedComponents.spark calls in order: ${cc.mkString(", ")}")
  }

  /** Median, max and the highest percentile that keeps ten samples above it. */
  def percentileNote(xs: Seq[Double]): String = {
    val s = xs.sorted
    val p = if (s.isEmpty) 0 else math.floor(100 * (1 - 10.0 / s.size)).toInt
    val tail =
      if (p <= 50) "no percentile above the median has 10 samples beyond it (needs 20 samples)"
      else s"p$p ${s(math.ceil(p / 100.0 * s.size).toInt - 1)} s"
    s"median ${median(s)} s, max ${s.lastOption.getOrElse(0.0)} s; $tail"
  }

  def opJson(o: Op): String = Json.obj("kind" -> o.kind, "index" -> o.index, "seconds" -> o.seconds,
    "traced" -> o.traced, "span" -> o.span, "stats" -> o.stats)

  def spanJson(s: Span): String = Json.obj(
    "id" -> s.id, "name" -> s.name, "parent" -> s.parent, "start_ms" -> s.start, "end_ms" -> s.end,
    "wall_s" -> s.wallS, "self_s" -> s.selfS, "derived" -> (s.derivedFrom >= 0), "jobs" -> s.c.jobs, "stages" -> s.c.stages,
    "task_cpu_s" -> s.c.cpuNs / 1e9, "task_gc_s" -> s.c.gcMs / 1e3, "jvm_gc_s" -> s.gcMs / 1e3,
    "shuffle_write_mb" -> s.c.shuffleBytes / 1e6, "driver_mb" -> s.c.resultBytes / 1e6,
    "busy_frac" -> s.busy, "attrs" -> s.attrs)
}
