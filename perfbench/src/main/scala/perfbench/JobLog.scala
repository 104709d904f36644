package perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** One Spark job of a query, with the layer it was attributed to and the
  * task work it did. Task counters are filled in by the listener only for
  * traced queries.
  */
final class JobRec(val jobId: Int, val query: Int, val traced: Boolean, val layer: String,
                   val submitMs: Long) {
  @volatile var endMs: Long = -1L
  val tasks = new AtomicLong
  val taskMs = new AtomicLong
  val inputBytes = new AtomicLong
  val shuffleBytes = new AtomicLong
}

/** Listens to every Spark job and files it under the query the client
  * thread tagged it with (the `perfbench.query` local property).
  *
  * Untraced, it only counts jobs per query. For a traced query
  * (`perfbench.trace` = 1) it also attributes each job to the first
  * `repro.*` method on the job's call site — e.g. `Moments$.blockSizes` —
  * (read from the call site of the SQL action that ran it, else from the
  * job's stages) and sums the tasks, task time, input and shuffle bytes of its stages.
  * Attribution reads the call site Spark records, so it follows the real
  * `Isla.run` wherever a phase moves.
  */
final class JobLog extends SparkListener {
  import JobLog._

  private val jobs = new ConcurrentHashMap[Int, JobRec]
  private val stageJob = new ConcurrentHashMap[Int, JobRec]
  private val fences = ConcurrentHashMap.newKeySet[Int]()
  private val execLayer = new ConcurrentHashMap[Long, String]

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val props = Option(e.properties)
    val query = props.flatMap(p => Option(p.getProperty(QueryKey))).map(_.toInt).getOrElse(NoQuery)
    if (query == NoQuery) return
    if (query == Fence) { fences.add(e.jobId); return }
    val traced = props.exists(p => p.getProperty(TraceKey) == "1")
    val layer =
      if (!traced) ""
      else props.flatMap(p => Option(p.getProperty(SqlRootKey)).orElse(Option(p.getProperty(SqlExecKey))))
        .flatMap(id => Option(execLayer.get(id.toLong)))
        .getOrElse(layerOf(e.stageInfos.sortBy(-_.stageId).flatMap(s => Option(s.details))))
    val rec = new JobRec(e.jobId, query, traced, layer, e.time)
    jobs.put(e.jobId, rec)
    if (traced) e.stageIds.foreach(s => stageJob.putIfAbsent(s, rec))
  }

  // A SQL action's call site is taken on the thread that ran the action;
  // adaptive execution may submit its jobs from another thread, whose own
  // call site holds no program frame.
  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart => execLayer.put(s.executionId, layerOf(Seq(s.details)))
    case _ =>
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    if (fences.remove(e.jobId)) { fenceSeen.incrementAndGet(); return }
    val rec = jobs.get(e.jobId)
    if (rec != null) rec.endMs = e.time
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val rec = stageJob.get(e.stageId)
    if (rec == null || e.taskMetrics == null) return
    val m = e.taskMetrics
    rec.tasks.incrementAndGet()
    rec.taskMs.addAndGet(m.executorRunTime)
    rec.inputBytes.addAndGet(m.inputMetrics.bytesRead)
    rec.shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
  }

  private val fenceSeen = new AtomicLong

  /** Run a tagged no-op job and wait until its end event arrives: the
    * listener bus delivers in order, so every earlier event has been seen.
    */
  def drain(sc: SparkContext): Unit = {
    val before = fenceSeen.get
    sc.setLocalProperty(QueryKey, Fence.toString)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(QueryKey, null)
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (fenceSeen.get == before && System.nanoTime() < deadline) Thread.sleep(2)
    require(fenceSeen.get > before, "Spark listener events did not arrive within 30 s")
  }

  /** Every job seen so far, grouped by query, in submission order. Call
    * after [[drain]].
    */
  def byQuery(): Map[Int, Seq[JobRec]] =
    jobs.values.asScala.toSeq.groupBy(_.query).map { case (q, js) => q -> js.sortBy(_.jobId) }
}

object JobLog {
  val QueryKey = "perfbench.query"
  val TraceKey = "perfbench.trace"
  private val SqlRootKey = "spark.sql.execution.root.id"
  private val SqlExecKey = "spark.sql.execution.id"
  val NoQuery: Int = Int.MinValue
  val Fence: Int = Int.MinValue + 1
  val Unattributed = "unattributed"

  /** Layer name for a program function, as the benchmark reports it. */
  val layerNames: Map[String, String] = Map(
    "Moments$.blockSizes" -> "blockSizes",
    "PreEstimation$.run" -> "preEstimation",
    "Moments$.collect" -> "moments",
    "IslaNonIid$.preEstimate" -> "nonIid.preEstimate",
    "IslaNonIid$.run" -> "nonIid.rest",
  )

  private val Frame = """^(repro\.[\w.$]+)\.([\w$]+)\(""".r.unanchored

  /** First `repro.*` frame over the given call sites (long form, one frame
    * a line); the raw `Object$.method` when the function has no layer name.
    */
  def layerOf(callSites: Seq[String]): String = {
    val frames = callSites.iterator.flatMap(_.linesIterator)
      .collect { case Frame(cls, method) => s"${cls.split('.').last}.${plain(method)}" }
    if (frames.hasNext) { val f = frames.next(); layerNames.getOrElse(f, f) } else Unattributed
  }

  /** `$anonfun$collect$1` → `collect`: a closure counts as its method. */
  private def plain(method: String): String =
    method.stripPrefix("$anonfun$").replaceAll("""\$\d+$""", "")

  def attach(sc: SparkContext): JobLog = {
    val l = new JobLog
    sc.addSparkListener(l)
    l
  }

  /** Tag the client thread's next jobs with a query id and trace flag. */
  def tag(sc: SparkContext, query: Int, traced: Boolean): Unit = {
    sc.setLocalProperty(QueryKey, query.toString)
    sc.setLocalProperty(TraceKey, if (traced) "1" else "0")
  }

  def untag(sc: SparkContext): Unit = {
    sc.setLocalProperty(QueryKey, null)
    sc.setLocalProperty(TraceKey, null)
  }
}
