package rbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.{BenchBus, SparkContext}
import org.apache.spark.scheduler._

/** Layer-by-layer tracing, done entirely from outside the program.
  *
  * The benchmark opens a span around every public call it makes
  * ([[Tracer.span]]); the span id travels to Spark as a job-local property.
  * A [[SparkListener]] records every job, stage and task. When the run
  * ends, each job is given a layer path, read from call stacks Spark
  * already records:
  *  - the stack of the action that started the job (the result stage's
  *    `details`), keeping the frames of the layer functions in [[Layers]];
  *  - if a stage the job ran was built by a deeper layer function that had
  *    already returned (a lazy RDD, e.g. the weights of `edgeWeights`
  *    materialized by `extract`), the job belongs to that deeper layer.
  * Consecutive jobs of one benchmark span that share a layer prefix form
  * one derived span per layer call, parented to the enclosing span. Spans
  * stay in memory until [[finish]].
  */
final class Tracer(sc: SparkContext, cores: Int) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil
  private var enabled = false
  private val jobs = mutable.LinkedHashMap.empty[Int, JobRec]
  private val stages = mutable.HashMap.empty[Int, StageRec]
  private val jobOfStage = mutable.HashMap.empty[Int, Int]

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = Tracer.this.synchronized {
      val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanProp))).map(_.toInt)
      val result = e.stageInfos.maxBy(_.stageId)
      jobs(e.jobId) = JobRec(e.jobId, span, e.time, e.time, result.details)
      e.stageIds.foreach(s => jobOfStage(s) = e.jobId)
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = Tracer.this.synchronized {
      jobs.get(e.jobId).foreach(_.end = e.time)
    }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = Tracer.this.synchronized {
      val info = e.stageInfo
      val st = stages.getOrElseUpdate(info.stageId, new StageRec(info.stageId))
      st.details = info.details
      st.attempts += 1
      jobOfStage.get(info.stageId).flatMap(jobs.get).foreach(_.ranStages += info.stageId)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Tracer.this.synchronized {
      val m = e.taskMetrics
      if (m != null) {
        val st = stages.getOrElseUpdate(e.stageId, new StageRec(e.stageId))
        st.c.add(Counters(cpuNs = m.executorCpuTime, gcMs = m.jvmGCTime,
          shuffleBytes = m.shuffleWriteMetrics.bytesWritten, resultBytes = m.resultSize))
      }
    }
  }

  /** Attach or detach the listener; untraced operations run without it. */
  def setEnabled(on: Boolean): Unit = {
    if (on && !enabled) sc.addSparkListener(listener)
    if (!on && enabled) { BenchBus.drain(sc); sc.removeSparkListener(listener) }
    enabled = on
  }

  /** Run `body` inside a benchmark span named `name` (a layer call or an
    * operation). Spans are recorded only while the tracer is enabled.
    */
  def span[A](name: String, attrs: (String, Any)*)(body: => A): A = {
    if (!enabled) return body
    val s = new Span(spans.size, name, open.headOption.map(_.id), now())
    s.attrs ++= attrs
    spans += s
    open ::= s
    sc.setLocalProperty(SpanProp, s.id.toString)
    val gc0 = gcMs()
    try body
    finally {
      s.end = now()
      s.gcMs = gcMs() - gc0
      open = open.tail
      sc.setLocalProperty(SpanProp, open.headOption.map(_.id.toString).orNull)
    }
  }

  /** Id of the innermost open span, if tracing. */
  def current: Option[Int] = open.headOption.map(_.id)

  /** Wait for the listener, derive the layer spans and return every span. */
  def finish(): Seq[Span] = {
    if (enabled) BenchBus.drain(sc)
    synchronized {
      val byBench = jobs.values.toSeq.filter(_.span.isDefined).groupBy(_.span.get)
      spans.toSeq.filter(_.derivedFrom < 0).foreach { bench =>
        bench.c.add(sumJobs(byBench.getOrElse(bench.id, Nil)))
        derive(bench, byBench.getOrElse(bench.id, Nil).sortBy(_.id))
      }
      // A bench span's counters include those of its bench children.
      spans.toSeq.filter(_.derivedFrom < 0).sortBy(-_.id).foreach { s =>
        s.parent.map(spans(_)).filter(_.derivedFrom < 0).foreach(_.c.add(s.c))
      }
      val kids = spans.toSeq.filter(_.parent.isDefined).groupBy(_.parent.get)
      spans.foreach { s =>
        s.busy = s.c.cpuNs / 1e9 / math.max(1e-9, s.wallS * cores)
        s.selfS = s.wallS - covered(kids.getOrElse(s.id, Nil).map(k => (k.start, k.end))) / 1e3
      }
      spans.toSeq
    }
  }

  /** Milliseconds covered by the union of `intervals`. */
  private def covered(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L; var reach = Long.MinValue
    intervals.sortBy(_._1).foreach { case (a, b) =>
      val from = math.max(a, reach)
      if (b > from) { total += b - from; reach = b }
    }
    total
  }

  private def sumJobs(js: Seq[JobRec]): Counters = {
    val c = Counters()
    js.foreach { j => c.jobs += 1; j.ranStages.foreach(s => stages.get(s).foreach(st => c.add(st.c, st.attempts))) }
    c
  }

  private def derive(bench: Span, js: Seq[JobRec]): Unit = {
    var stack = List.empty[(String, Span)] // innermost first
    js.foreach { j =>
      val path = layerPath(j)
      // Close the open spans this job does not continue.
      val keep = stack.reverse.zip(path).takeWhile { case ((n, _), p) => n == p }.length
      stack = stack.drop(stack.length - keep)
      path.drop(keep).foreach { name =>
        val parent = stack.headOption.map(_._2.id).getOrElse(bench.id)
        val s = new Span(spans.size, name, Some(parent), j.start)
        s.derivedFrom = bench.id
        spans += s
        stack ::= ((name, s))
      }
      val c = sumJobs(Seq(j))
      stack.foreach { case (_, s) => s.end = math.max(s.end, j.end); s.c.add(c) }
    }
  }

  private def layerPath(j: JobRec): List[String] = {
    val action = layersOf(j.details)
    val built = j.ranStages.toSeq.flatMap(stages.get).map(st => layersOf(st.details))
      .filter(p => p.length > action.length && p.startsWith(action))
    (action +: built).maxBy(_.length)
  }
}

object Tracer {
  private val SpanProp = "rbench.span"

  /** Layer functions recognised on call stacks, by `Class$.method`. The
    * entry points the benchmark calls itself (`propagate`, `extract`,
    * `update`) are benchmark spans and are not listed.
    */
  val Layers: Map[String, String] = Map(
    "repro.core.SparkRSLPA$.propagateLabels"       -> "SparkRSLPA.propagateLabels",
    "repro.core.SparkRSLPA$.withRecords"           -> "SparkRSLPA.withRecords",
    "repro.core.SparkPostProcess$.edgeWeights"     -> "SparkPostProcess.edgeWeights",
    "repro.core.SparkPostProcess$.chooseTau2"      -> "SparkPostProcess.chooseTau2",
    "repro.core.SparkPostProcess$.chooseTau1"      -> "SparkPostProcess.chooseTau1",
    "repro.graph.ConnectedComponents$.spark"       -> "ConnectedComponents.spark",
  )

  private val Frame = """^\s*(?:at\s+)?([\w.$]+)\.(\w+)\(.*$""".r

  /** Layer names on a Spark call-site stack, outermost first, collapsing
    * repeated frames of one function.
    */
  def layersOf(details: String): List[String] = {
    val names = Option(details).toSeq.flatMap(_.split('\n')).reverseIterator.flatMap {
      case Frame(cls, m) => Layers.get(s"$cls.$m")
      case _             => None
    }.toList
    names.foldRight(List.empty[String]) { (n, acc) => if (acc.headOption.contains(n)) acc else n :: acc }
  }

  def now(): Long = System.currentTimeMillis()

  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  final case class Counters(var jobs: Long = 0, var stages: Long = 0, var cpuNs: Long = 0,
                            var gcMs: Long = 0, var shuffleBytes: Long = 0, var resultBytes: Long = 0) {
    def add(o: Counters, stageAttempts: Int = 0): Unit = {
      jobs += o.jobs; stages += o.stages + stageAttempts; cpuNs += o.cpuNs
      gcMs += o.gcMs; shuffleBytes += o.shuffleBytes; resultBytes += o.resultBytes
    }
  }

  final class StageRec(val id: Int) {
    var details: String = ""
    var attempts: Int = 0
    val c: Counters = Counters()
  }

  final case class JobRec(id: Int, span: Option[Int], start: Long, var end: Long, details: String) {
    val ranStages: mutable.Set[Int] = mutable.LinkedHashSet.empty
  }

  /** One span: a benchmark call (`derivedFrom` < 0) or a layer call derived
    * from the jobs of benchmark span `derivedFrom`. Times are epoch ms.
    */
  final class Span(val id: Int, val name: String, val parent: Option[Int], val start: Long) {
    var end: Long = start
    var derivedFrom: Int = -1
    var gcMs: Long = 0 // JVM-wide GC during a benchmark span
    var busy: Double = 0.0
    var selfS: Double = 0.0 // wall minus the time child spans cover
    val c: Counters = Counters()
    val attrs: mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap.empty
    def wallS: Double = (end - start) / 1e3
  }
}
