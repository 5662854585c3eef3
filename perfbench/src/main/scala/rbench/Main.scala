package rbench

import java.io.{File, PrintWriter}

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.SparkEnv
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core.{LocalIncremental, LocalRSLPA, RslpaState, SparkCorrection, SparkPostProcess, SparkRSLPA}
import repro.core.SparkRSLPA.RVState
import repro.dynamic.EditBatch
import repro.graph.{GraphGen, GraphOps, LocalGraph}

/** The rSLPA benchmark: one initial detection (SparkRSLPA.propagate +
  * SparkPostProcess.extract, the Fig. 8 pipeline and Fig. 9's from-scratch
  * baseline), then a closed-loop stream of edit batches with one client:
  * batch k+1 is handed over only after batch k's cover is materialized,
  * because each batch edits the state the previous one produced
  * (SparkCorrection.update + extract, the Fig. 9 pipeline).
  *
  * Every operation's output is checked against the local engines outside
  * the timed sections. With `--trace 1` a listener records layer spans
  * (see [[Tracer]]) and the run prints per-layer metrics instead of the
  * end-to-end ones.
  *
  * Usage: Main --workload W --seed N --seconds S --trace 0|1
  *        [--out DIR] [--commit SHA]
  */
object Main {

  /** A workload: an RMAT web-graph substitute of `2^scale` ids and
    * `rawEdges` directed edges, label memories of length T+1, and a stream
    * of `batch`-edit batches (half insertions, half deletions).
    */
  final case class Workload(name: String, scale: Int, rawEdges: Long, T: Int, batch: Int)

  val Workloads: Seq[Workload] = Seq(
    // ~0.8% of the edges per batch: η stays a few percent of the labels,
    // so an update pays almost only the full-state floor of SparkCorrection.
    Workload("stream-b100", scale = 11, rawEdges = 15000, T = 40, batch = 100),
    // ~6.7% of the edges per batch (Fig. 9's 10,000 edits were 6% of its
    // graph): η is a large share of the labels and the driver cascade pulls
    // much of the state.
    Workload("stream-b800", scale = 11, rawEdges = 15000, T = 40, batch = 800),
  )

  /** Seed of the graph and of the edit stream. Both are the same for every
    * run, as in the Fig. 8/9 benches; the run's seed drives the rSLPA picks
    * and repicks. A stream drawn per seed reshapes the graph differently
    * each time and moved `stream-b800` update times by ±12% between seeds.
    */
  val GraphSeed = 2015L
  val SetupRounds = 5
  /** Batches generated before timing; the stream stops early if it runs out. */
  val MaxBatches = 12
  /** Fewest batches per run: three samples for the median; the traced run
    * needs two traced and two untraced ones.
    */
  val MinBatches = 3
  val MinTracedBatches = 4

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        out: File, commit: String)

  def parseArgs(a: Array[String]): Args = {
    val m = a.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workloads.find(_.name == need("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${need("workload")}; known: ${Workloads.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case x   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $x")
    }
    Args(w, need("seed").toLong, need("seconds").toDouble, trace,
      new File(m.getOrElse("out", "perfbench/out")), m.getOrElse("commit", "unknown"))
  }

  /** The inputs, generated before any timed section: the graph, then the
    * graph each edit batch produces from the one before it.
    */
  def generate(w: Workload): Vector[LocalGraph] =
    (1 to MaxBatches).foldLeft(Vector(GraphGen.webGraphLocal(w.scale, w.rawEdges, GraphSeed)._2)) { (gs, k) =>
      val b = EditBatch.halfAndHalf(gs.last, w.batch, GraphSeed * 1000003L + k)
      gs :+ gs.last.edited(b.insertions, b.deletions)
    }

  def session(cores: Int, localDir: File): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("rbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir.getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0 else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def collectState(st: RDD[(Long, RVState)]): Checks.Collected =
    st.mapValues(s => (s.labels, s.srcs, s.poss)).collect().toMap

  /** Serialized bytes of the state, with the serializer Spark is using. */
  def stateBytes(st: RDD[(Long, RVState)]): Long =
    st.mapPartitions { it =>
      val ser = SparkEnv.get.serializer.newInstance()
      Iterator(it.map(r => ser.serialize(r).remaining().toLong).sum)
    }.sum().toLong

  /** Start every timed operation from the same JVM state: a collected heap
    * and no JIT compilation in flight (waits at most one second).
    */
  def quiesce(): Unit = {
    System.gc()
    val jit = java.lang.management.ManagementFactory.getCompilationMXBean
    val deadline = System.nanoTime() + 1000000000L
    var last = jit.getTotalCompilationTime
    var quietSince = System.nanoTime()
    while (System.nanoTime() - quietSince < 200000000L && System.nanoTime() < deadline) {
      Thread.sleep(20)
      val now = jit.getTotalCompilationTime
      if (now != last) { last = now; quietSince = System.nanoTime() }
    }
  }

  final case class Op(kind: String, index: Int, seconds: Double, traced: Boolean, span: Option[Int],
                      stats: Map[String, Double])

  def main(argv: Array[String]): Unit = {
    val args = try parseArgs(argv) catch {
      case e: IllegalArgumentException => System.err.println(e.getMessage); sys.exit(2)
    }
    val ok = run(args)
    sys.exit(if (ok) 0 else 1)
  }

  def run(args: Args): Boolean = {
    val w = args.workload
    val cores = Runtime.getRuntime.availableProcessors()
    val localDir = new File(args.out, s"spark-local-${ProcessHandle.current().pid()}")
    val rslpaSeed = args.seed * 7919L + 17
    val T = w.T

    // Set-up, repeated: session start, then input generation.
    var spark: SparkSession = null
    var graphs = Vector.empty[LocalGraph]
    val setupRounds = (1 to SetupRounds).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = session(cores, localDir)
      graphs = generate(w)
      secondsSince(t0)
    }
    val sc = spark.sparkContext

    // JIT warm-up on a small graph: the same calls and checks, untimed.
    val warmT0 = System.nanoTime()
    locally {
      val (wT, wSeed) = (5, rslpaSeed + 1)
      val g = GraphGen.webGraphLocal(8, 1500, args.seed + 1)._2
      val b = EditBatch.halfAndHalf(g, 20, args.seed + 2)
      val g1 = g.edited(b.insertions, b.deletions)
      val local = LocalRSLPA.propagate(g, wT, wSeed)
      val st = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g), wT, wSeed).persist(StorageLevel.MEMORY_AND_DISK)
      st.count()
      val c0 = SparkPostProcess.extract(st.mapValues(_.labels), GraphOps.edgesRDD(sc, g), wT + 1)
      val before = collectState(st)
      Checks.cover(c0.assignments.collect(), c0.tau1, c0.tau2, g, local.labels)
      val (st1, _) = SparkCorrection.update(st, GraphOps.adjacencyRDD(sc, g1), wT, wSeed, 1)
      val c1 = SparkPostProcess.extract(st1.mapValues(_.labels), GraphOps.edgesRDD(sc, g1), wT + 1)
      LocalIncremental.update(g, g1, local, wSeed, 1)
      val after = collectState(st1)
      Checks.state(after, local) ++ Checks.cover(c1.assignments.collect(), c1.tau1, c1.tau2, g1, local.labels)
      Checks.labelDiffs(before, after)
      stateBytes(st1)
      sc.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    }
    val warmupS = secondsSince(warmT0)
    val firstOpAfterS = (System.currentTimeMillis() -
      java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

    val tracer = new Tracer(sc, cores)
    val ops = mutable.ArrayBuffer.empty[Op]
    val failures = mutable.ArrayBuffer.empty[String]
    val failedOps = mutable.LinkedHashSet.empty[String]
    var attempted = 0

    /** Run one timed operation; returns its result unless it threw. */
    def timedOp[A](kind: String, index: Int, traced: Boolean)(body: => A)(stats: A => Map[String, Double]): Option[A] = {
      attempted += 1
      quiesce()
      tracer.setEnabled(traced)
      var root: Option[Int] = None
      val t0 = System.nanoTime()
      val r = try Some(tracer.span(kind, "index" -> index) { root = tracer.current; body }) catch {
        case NonFatal(e) =>
          failures += s"$kind $index threw ${e.getClass.getSimpleName}: ${e.getMessage}"
          failedOps += s"$kind $index"
          None
      }
      val secs = secondsSince(t0)
      tracer.setEnabled(false)
      r.foreach(x => ops += Op(kind, index, secs, traced, root, stats(x)))
      r
    }

    /** Record the problems a check found against operation `op`. */
    def check(op: String, what: String, errs: Seq[String]): Boolean = {
      errs.foreach(e => failures += s"$op $what: $e")
      if (errs.nonEmpty) failedOps += op
      errs.isEmpty
    }

    def detect(traced: Boolean, index: Int): Option[(RDD[(Long, RVState)], SparkPostProcess.SparkCover, Array[(Long, Long)])] = {
      val g = graphs(0)
      timedOp("detect", index, traced) {
        val st = tracer.span("SparkRSLPA.propagate") {
          val s = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g), T, rslpaSeed).persist(StorageLevel.MEMORY_AND_DISK)
          s.count()
          s
        }
        val (cov, assign) = tracer.span("SparkPostProcess.extract") {
          val c = SparkPostProcess.extract(st.mapValues(_.labels), GraphOps.edgesRDD(sc, g), T + 1)
          (c, c.assignments.collect())
        }
        (st, cov, assign)
      }(_ => Map.empty)
    }

    // Initial detection, checked against LocalRSLPA. The traced run traces
    // it, then detects once more without the listener to measure the tracing
    // overhead; its stream starts from that second state.
    val localSt: RslpaState = LocalRSLPA.propagate(graphs(0), T, rslpaSeed)
    val detections = if (args.trace) Seq(true, false) else Seq(false)
    var base: Option[(RDD[(Long, RVState)], Checks.Collected)] = None
    detections.zipWithIndex.foreach { case (traced, i) =>
      detect(traced, i).foreach { case (st, cov, assign) =>
        val got = collectState(st)
        val good = check(s"detect $i", "state", Checks.state(got, localSt)) &
          check(s"detect $i", "cover", Checks.cover(assign, cov.tau1, cov.tau2, graphs(0), localSt.labels))
        base.foreach(_._1.unpersist(blocking = true))
        base = if (good) Some((st, got)) else None
      }
    }

    // The stream: closed loop over the evolving state, one client.
    var state = base
    var measured = 0.0
    var k = 1
    val minBatches = if (args.trace) MinTracedBatches else MinBatches
    while (state.isDefined && k <= MaxBatches && (measured < args.seconds || k <= minBatches)) {
      val (st, before) = state.get
      val g1 = graphs(k)
      val epoch = k.toLong
      val traced = args.trace && k % 2 == 0
      val res = timedOp("batch", k, traced) {
        val (st1, stats) = tracer.span("SparkCorrection.update") {
          val r = SparkCorrection.update(st, GraphOps.adjacencyRDD(sc, g1), T, rslpaSeed, epoch)
          r._1.count()
          r
        }
        val (cov, assign) = tracer.span("SparkPostProcess.extract") {
          val c = SparkPostProcess.extract(st1.mapValues(_.labels), GraphOps.edgesRDD(sc, g1), T + 1)
          (c, c.assignments.collect())
        }
        (st1, stats, cov, assign)
      } { case (_, s, _, _) =>
        Map("repicked" -> s.repicked.toDouble, "corrected_stat" -> s.corrected.toDouble, "rounds" -> s.rounds.toDouble)
      }
      state = res.flatMap { case (st1, _, cov, assign) =>
        measured += ops.last.seconds
        val localStats = LocalIncremental.update(graphs(k - 1), g1, localSt, rslpaSeed, epoch)
        val after = collectState(st1)
        val good = check(s"batch $k", "state", Checks.state(after, localSt)) &
          check(s"batch $k", "cover", Checks.cover(assign, cov.tau1, cov.tau2, g1, localSt.labels))
        val eta = Checks.labelDiffs(before, after).toDouble
        val op = ops.last
        ops(ops.size - 1) = op.copy(stats = op.stats ++ Map(
          "eta" -> eta, "eta_local" -> localStats.corrected.toDouble,
          "eta_stat_ratio" -> (if (eta > 0) op.stats("corrected_stat") / eta else 0.0)))
        if (good) Some((st1, after)) else None
      }
      k += 1
    }
    val batchesRun = ops.count(_.kind == "batch")
    val stateBpl = state.map { case (st, _) =>
      stateBytes(st).toDouble / (graphs(0).n.toLong * (T + 1))
    }.getOrElse(0.0)
    val spans = tracer.finish()
    val failed = failedOps.size
    val correct = failures.isEmpty && state.isDefined && batchesRun >= minBatches

    // Report.
    val detectS = median(ops.toSeq.filter(o => o.kind == "detect" && !o.traced).map(_.seconds))
    val updates = ops.toSeq.filter(o => o.kind == "batch" && !o.traced).map(_.seconds)
    val updP50 = median(updates)
    val g0 = graphs(0)
    val stamp = Json.obj(
      "workload" -> w.name, "seed" -> args.seed, "trace" -> args.trace, "cores" -> cores,
      "master" -> sc.master, "driver_heap_mb" -> Runtime.getRuntime.maxMemory() / (1L << 20),
      "jdk" -> System.getProperty("java.version"), "spark" -> sc.version, "commit" -> args.commit,
      "V" -> g0.n, "E" -> g0.numEdges, "T" -> T, "batch_size" -> w.batch,
      "graph_seed" -> GraphSeed, "rslpa_seed" -> rslpaSeed,
      "batch_seeds" -> Seq(GraphSeed * 1000003L + 1, GraphSeed * 1000003L + MaxBatches),
      "batches_run" -> batchesRun, "measured_s" -> measured,
      "op_seconds" -> ops.map(o => s"${o.kind}${o.index}${if (o.traced) "t" else ""}" -> o.seconds).toMap,
      "setup_rounds_s" -> setupRounds, "warmup_s" -> warmupS, "first_op_after_s" -> firstOpAfterS,
      "attempted" -> attempted, "failed" -> failed,
      "failed_frac" -> failed.toDouble / math.max(1, attempted))
    println(s"stamp ${stamp}")
    failures.foreach(f => println(s"FAILED CHECK: $f"))

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) {
        println(f"workload ${w.name}: |V|=${g0.n} |E|=${g0.numEdges} T=$T batch=${w.batch} batches=$batchesRun")
        println(s"update samples: n=${updates.size} " + Report.percentileNote(updates))
        println(f"Fig. 9 ratio (information only): detect_s / update_p50_s = ${detectS / math.max(1e-9, updP50)}%.3f")
        Seq(("setup_s", median(setupRounds), "s"), ("detect_s", detectS, "s"),
          ("update_p50_s", updP50, "s"), ("state_bytes_per_label", stateBpl, "B/label"))
      } else {
        Report.notes(ops.toSeq, spans).foreach(println)
        Report.layers(ops.toSeq, spans, T, cores)
      }
    metrics.foreach { case (n, v, u) => println(f"$n%-45s $v%14.6f $u") }

    if (args.trace) {
      args.out.mkdir()
      val f = new File(args.out, s"trace-${w.name}-seed${args.seed}.json")
      val pw = new PrintWriter(f)
      try pw.println(Json.obj("stamp" -> Json.Raw(stamp), "ops" -> ops.map(o => Json.Raw(Report.opJson(o))), "spans" -> spans.map(s => Json.Raw(Report.spanJson(s)))))
      finally pw.close()
      println(s"spans written to ${f.getPath}")
    }

    spark.stop()
    deleteTree(localDir)
    println(Json.obj(
      "correct" -> correct, "attempted" -> math.max(1, attempted), "failed" -> failed,
      "metrics" -> Json.Raw(Json.obj(metrics.map { case (n, v, u) => n -> Json.Raw(Json.obj("value" -> v, "unit" -> u)) }: _*))))
    correct
  }

  private def deleteTree(f: File): Unit = {
    Option(f.listFiles()).foreach(_.foreach(deleteTree))
    f.delete()
  }
}
