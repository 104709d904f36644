package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import com.sun.management.GarbageCollectionNotificationInfo

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.Oracle
import repro.baselines.UniformSampling
import repro.core._

/** The ISLA query benchmark: `AVG(value)` at precision e and confidence β,
  * issued as `Isla.run` (or `IslaNonIid.run`) on warm, cached, blocked input
  * by one client thread in a closed loop.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans <file>]
  * }}}
  *
  * The last line of standard output is the result as one JSON object; the
  * line before it, prefixed `INFO `, records the settings the answers
  * depend on. See perfbench/README.md for the metrics.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        smoke: Boolean, spans: Option[String])

  def parseArgs(args: Array[String]): Args = {
    val kv = mutable.Map.empty[String, String]
    var smoke = false
    var i = 0
    while (i < args.length) {
      args(i) match {
        case "--smoke" => smoke = true; i += 1
        case k if k.startsWith("--") && i + 1 < args.length => kv(k.drop(2)) = args(i + 1); i += 2
        case other => throw new IllegalArgumentException(s"unexpected argument '$other'")
      }
    }
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1: $t")
    }
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toInt, trace, smoke, kv.get("spans"))
    require(a.seconds >= 1, s"--seconds must be at least 1: ${a.seconds}")
    a
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try {
        val a = parseArgs(argv)
        new Bench(a, Workloads(a.workload, a.smoke)).run()
        0
      } catch {
        case e: IllegalArgumentException => System.err.println(s"perfbench: ${e.getMessage}"); 2
        case NonFatal(e) => e.printStackTrace(); 1
      }
    sys.exit(code)
  }
}

/** Everything the answers depend on, pinned. `rand(seed)` draws depend on
  * the input's partition layout, so with these fixed the answers, the
  * accuracy metrics and the job counts repeat exactly for one seed.
  */
object Pins {
  // One core is left to the driver thread, the JIT and the collector: with
  // every core running tasks, latencies spread twice as wide run to run.
  val cores: Int = math.min(3, Runtime.getRuntime.availableProcessors)
  val master: String = s"local[$cores]"
  val inputPartitions = 8
  val shufflePartitions = 8
  val setupRounds = 3

  def session(): SparkSession =
    SparkSession.builder
      .master(master)
      .appName("perfbench")
      .config("spark.default.parallelism", inputPartitions.toLong)
      .config("spark.sql.shuffle.partitions", shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .getOrCreate()
}

/** A workload's cached input plus its exact per-block ground truth. */
final case class Loaded(spark: SparkSession, df: DataFrame, sizes: Map[Long, Long],
                        sums: Map[Long, Double]) {
  val rows: Long = sizes.values.sum
  val exact: Double = sizes.keys.toSeq.sorted.map(sums).sum / rows
}

/** One timed ISLA query. `answer` is NaN when the query failed. */
final case class QueryRec(i: Int, ms: Double, answer: Double, failure: Option[String],
                          traced: Boolean, gcMs: Long, startMs: Long, endMs: Long,
                          result: Option[IslaResult])

/** A span kept in memory until the run ends: name, start, end (epoch ms),
  * parent span name and query id.
  */
final case class Span(name: String, startMs: Long, endMs: Long, parent: String, query: Int)

final class Bench(a: Main.Args, w: Workload) {
  private val dataSeed = Seeds.mix(a.seed, -1)
  private var correct = true
  private val notes = mutable.ArrayBuffer.empty[String]

  private def fail(msg: String): Unit = { correct = false; notes += msg; System.err.println(s"perfbench: $msg") }

  def run(): Unit = {
    // Set-up, several times; the median is `setup_s`. Each round starts a
    // fresh session, generates and caches the input, and reads the block
    // sizes and the exact AVG from it.
    var loaded: Loaded = null
    val setupS = (1 to Pins.setupRounds).map { _ =>
      if (loaded != null) { loaded.df.unpersist(true); loaded.spark.stop() }
      val t0 = System.nanoTime()
      loaded = load()
      (System.nanoTime() - t0) / 1e9
    }
    val l = loaded
    val c0 = System.nanoTime()
    crossCheck(l)
    val crossCheckS = (System.nanoTime() - c0) / 1e9

    val e = w.precision(l.exact)
    val p = IslaParams(e = e)
    val sc = l.spark.sparkContext
    val log = JobLog.attach(sc)

    // Untimed queries first (at least one): latency keeps falling over the
    // first dozen queries of a process while the JIT warms.
    val warmupS = if (a.smoke) 0 else 6
    val warm = System.nanoTime() + warmupS * 1000000000L
    var k = 1
    while (k == 1 || System.nanoTime() < warm) {
      val r = query(l, p, Seeds.mix(a.seed, -1 - k))
      if (!a.trace) UniformSampling.run(l.df, "value", r.rate, seed = Seeds.mix(a.seed, -1000000 - k))
      k += 1
    }

    val queries = mutable.ArrayBuffer.empty[QueryRec]
    val usMs = mutable.ArrayBuffer.empty[Double]
    val aux = mutable.ArrayBuffer.empty[AuxRec]
    val heap = new LiveHeapPeak
    val t0 = System.nanoTime()
    val soft = t0 + a.seconds * 1000000000L
    val hard = t0 + 3L * a.seconds * 1000000000L
    var i = 0
    while ((i < w.minQueries || System.nanoTime() < soft) && System.nanoTime() < hard) {
      val traced = a.trace && i % 2 == 0
      val seed = Seeds.mix(a.seed, i)
      JobLog.tag(sc, i, traced)
      val gc0 = gcMillis()
      val start = System.currentTimeMillis()
      val q0 = System.nanoTime()
      val attempt = try Right(query(l, p, seed)) catch { case NonFatal(ex) => Left(ex.toString) }
      val ms = (System.nanoTime() - q0) / 1e6
      val end = System.currentTimeMillis()
      JobLog.untag(sc)
      val gc = gcMillis() - gc0
      val rec = attempt match {
        case Left(err) => QueryRec(i, ms, Double.NaN, Some(err), traced, gc, start, end, None)
        case Right(r) =>
          checkShape(i, r, l)
          val failure = if (r.answer.isNaN || r.answer.isInfinite) Some(s"non-finite answer ${r.answer}") else None
          QueryRec(i, ms, r.answer, failure, traced, gc, start, end, Some(r))
      }
      rec.failure.foreach(f => System.err.println(s"perfbench: query $i failed: $f"))
      queries += rec
      if (!a.trace) rec.result.foreach { r =>
        // Uniform sampling at the query's own rate: the §VIII-F reference.
        for (u <- 0 until w.usPerQuery) {
          val u0 = System.nanoTime()
          val us = UniformSampling.run(l.df, "value", r.rate, seed = Seeds.mix(a.seed, 1000000 + 10 * i + u))
          usMs += (System.nanoTime() - u0) / 1e6
          if (us.answer.isNaN || us.answer.isInfinite) fail(s"uniform sampling gave ${us.answer} on query $i")
        }
      }
      if (traced && !w.nonIid) rec.result.foreach(r => aux += modulationAux(i, r, l, p, seed))
      i += 1
    }
    val loopS = (System.nanoTime() - t0) / 1e9
    val heapPeakMb = heap.stop() / 1048576.0
    log.drain(sc)
    val jobs = log.byQuery()
    // With the input released, the heap left after a full collection is
    // Spark's own baseline plus whatever the queries kept. Recorded, not
    // bounded: Spark keeps each query's generated code and plans, so the
    // figure grows with the number of queries a run makes, and a faster
    // program makes more (see README.md).
    l.df.unpersist(true)
    System.gc()
    val heapRetainedMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0

    val info = mutable.LinkedHashMap[String, Any](
      "workload" -> w.name, "seed" -> a.seed, "trace" -> a.trace, "smoke" -> a.smoke,
      "master" -> Pins.master, "cores" -> Pins.cores, "nproc" -> Runtime.getRuntime.availableProcessors,
      "input_partitions" -> Pins.inputPartitions, "shuffle_partitions" -> Pins.shufflePartitions,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576, "spark" -> l.spark.version,
      "java" -> System.getProperty("java.version"), "rows" -> l.rows, "blocks" -> w.blocks,
      "e" -> e, "beta" -> p.beta, "exact_avg" -> l.exact, "setup_rounds_s" -> setupS, "cross_check_s" -> crossCheckS, "warmup_queries" -> (k - 1),
      "timed_s" -> loopS, "queries" -> queries.size, "us_queries" -> usMs.size,
      "query_ms" -> queries.map(q => math.rint(q.ms * 10) / 10), "us_ms" -> usMs.map(x => math.rint(x * 10) / 10),
      "heap_peak_mb" -> heapPeakMb, "heap_retained_mb" -> heapRetainedMb,
    )
    val metrics =
      if (a.trace) Trace.metrics(queries.toSeq, jobs, aux.toSeq, w, p, l.exact, info, spans => writeSpans(spans))
      else endToEnd(queries.toSeq, jobs, usMs.toSeq, setupS, e, l, info)
    l.spark.stop()

    val failed = queries.count(_.failure.isDefined)
    info("notes") = notes.toSeq
    metrics.foreach { case (name, (v, unit)) =>
      if (v.isNaN || v.isInfinite) fail(s"metric $name is $v")
      println(f"$name%-32s ${fmt(v)}%14s $unit")
    }
    println("INFO " + Json(info))
    println(Json(mutable.LinkedHashMap(
      "correct" -> correct, "attempted" -> queries.size, "failed" -> failed,
      "metrics" -> mutable.LinkedHashMap(metrics.map { case (k, (v, u)) =>
        k -> mutable.LinkedHashMap("value" -> (if (v.isNaN || v.isInfinite) 0.0 else v), "unit" -> u)
      }: _*))))
  }

  private def fmt(v: Double): String =
    if (v != 0 && math.abs(v) < 0.01) f"$v%.6g" else f"$v%.4f"

  private def load(): Loaded = {
    val spark = Pins.session()
    val df = w.generate(spark, dataSeed).cache()
    val truth = df.groupBy(col("block")).agg(count(lit(1)).as("n"), sum(col("value")).as("s")).collect()
    val parts = df.rdd.getNumPartitions
    require(parts == Pins.inputPartitions,
      s"cached input has $parts partitions, not the pinned ${Pins.inputPartitions}: answers would differ")
    Loaded(spark, df,
      truth.map(r => r.getLong(0) -> r.getLong(1)).toMap,
      truth.map(r => r.getLong(0) -> r.getDouble(2)).toMap)
  }

  /** Cross-check the ground truth once, outside the timed region: per-block
    * counts and sums through the RDD API, independent of the SQL
    * aggregation, at full size; and SQL `AVG` semantics against DuckDB on
    * the input's first 4000 rows.
    */
  private def crossCheck(l: Loaded): Unit = {
    val spark = l.spark
    import spark.implicits._
    val viaRdd = l.df.select($"block", $"value").queryExecution.toRdd
      .map(r => (r.getLong(0), r.getDouble(1)))
      .aggregateByKey((0L, 0.0, 0.0))(
        { case ((n, s, c), x) => val y = x - c; val t = s + y; (n + 1, t, (t - s) - y) },
        { case ((n1, s1, _), (n2, s2, _)) => (n1 + n2, s1 + s2, 0.0) })
      .collectAsMap()
    if (viaRdd.keySet != l.sizes.keySet) fail(s"blocks differ: rdd=${viaRdd.keySet} sql=${l.sizes.keySet}")
    for ((b, (n, s, _)) <- viaRdd if l.sizes.contains(b)) {
      if (n != l.sizes(b)) fail(s"block $b: rdd count $n != sql count ${l.sizes(b)}")
      if (math.abs(s - l.sums(b)) > 1e-9 * math.max(1.0, math.abs(s))) fail(s"block $b: rdd sum $s != sql sum ${l.sums(b)}")
    }
    if (l.sizes.size != w.blocks) fail(s"${l.sizes.size} blocks, expected ${w.blocks}")
    if (l.rows != w.rows) fail(s"${l.rows} rows, expected ${w.rows}")

    val small = l.df.limit(4000).cache()
    try {
      Oracle.assertEquivalent(
        small.groupBy($"block").agg(count(lit(1)).as("n"), round(avg($"value"), 3).as("a")),
        "SELECT block, count(*) AS n, round(avg(CAST(value AS DOUBLE)), 3) AS a FROM t GROUP BY block",
        "t" -> small)
    } catch { case NonFatal(ex) => fail(s"DuckDB cross-check: ${ex.getMessage}") }
    finally { small.unpersist(); () }
  }

  private def query(l: Loaded, p: IslaParams, seed: Long): IslaResult = {
    val sizes = if (w.sizesGiven) Some(l.sizes) else None
    if (w.nonIid) IslaNonIid.run(l.df, "value", p, sizes, "block", seed)
    else Isla.run(l.df, "value", p, sizes, "block", seed)
  }

  /** One `BlockResult` per block, and Σ blockSize = M. */
  private def checkShape(i: Int, r: IslaResult, l: Loaded): Unit = {
    if (r.blocks.size != w.blocks) fail(s"query $i: ${r.blocks.size} block results for ${w.blocks} blocks")
    val m = r.blocks.map(_.blockSize).sum
    if (m != l.rows) fail(s"query $i: block sizes sum to $m, not M=${l.rows}")
  }

  /** Re-run query `i`'s sampling phase outside its timed span, check that
    * Algorithm 2 over those moments reproduces the query's per-block
    * answers, and time `Modulation.solveBlock` directly.
    */
  private def modulationAux(i: Int, r: IslaResult, l: Loaded, p: IslaParams, seed: Long): AuxRec = {
    val sketch0 = r.sketch0 + r.shift
    val bounds = Boundaries(sketch0, r.sigma, p.p1, p.p2)
    val df = if (r.shift == 0) l.df else l.df.withColumn("value", col("value") + lit(r.shift))
    val moments = Moments.collect(df, "value", r.rate, bounds, l.sizes, "block", seed + 2)
    val solved = moments.map(Modulation.solveBlock(_, sketch0, p))
    val same = solved.size == r.blocks.size && solved.zip(r.blocks).forall { case (x, y) =>
      x.block == y.block && x.modCase == y.modCase && x.iterations == y.iterations &&
        math.abs(x.avg - y.avg) <= 1e-9 * math.max(1.0, math.abs(y.avg))
    }
    if (!same) fail(s"query $i: Algorithm 2 over re-collected moments differs from the query's blocks")
    val reps = 200
    val t0 = System.nanoTime()
    var k = 0
    while (k < reps) { moments.foreach(Modulation.solveBlock(_, sketch0, p)); k += 1 }
    val us = (System.nanoTime() - t0) / 1e3 / reps
    val useful = moments.map(m => m.s.n + m.l.n).sum.toDouble / (r.rate * l.rows)
    AuxRec(i, us, useful)
  }

  private def endToEnd(qs: Seq[QueryRec], jobs: Map[Int, Seq[JobRec]], usMs: Seq[Double],
                       setupS: Seq[Double], e: Double, l: Loaded,
                       info: mutable.Map[String, Any]): Seq[(String, (Double, String))] = {
    // Failed queries miss every latency limit: they sort above the rest.
    val lat = qs.map(q => if (q.failure.isDefined) Double.PositiveInfinity else q.ms)
    val (tailPct, beyond) = Stats.tailPercentile(lat.size)
    // Reported beside the bounded metrics, not among them: at this run
    // length no percentile above the median has ten samples beyond it, and
    // the accuracy shares and the heap peak spread more from seed to seed
    // than any bound allows (see README.md).
    val acc = qs.take(w.minQueries)
    val (within, errMean) = Accuracy(acc, l.exact, e)
    info ++= Seq(
      "query_ms_tail" -> Stats.quantile(lat, tailPct / 100.0), "tail_pct" -> tailPct, "tail_beyond" -> beyond,
      "within_e_frac" -> within, "abs_err_over_e_mean" -> errMean, "accuracy_queries" -> acc.size,
      "failed_frac" -> qs.count(_.failure.isDefined).toDouble / qs.size)
    Seq(
      "setup_s" -> (Stats.median(setupS), "s"),
      "query_ms_p50" -> (Stats.quantile(lat, 0.5), "ms"),
      "queries_per_s" -> (qs.size / (qs.map(_.ms).sum / 1000.0), "1/s"),
      "us_ms_p50" -> (Stats.median(usMs), "ms"),
      "jobs_per_query" -> (acc.map(q => jobs.getOrElse(q.i, Nil).size).sum.toDouble / acc.size, "count"),
    )
  }

  private def writeSpans(spans: Seq[Span]): Unit = a.spans.foreach { path =>
    val f = new File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val pw = new PrintWriter(f, "UTF-8")
    try spans.foreach(s => pw.println(Json(mutable.LinkedHashMap(
      "name" -> s.name, "start_ms" -> s.startMs, "end_ms" -> s.endMs, "parent" -> s.parent, "query" -> s.query))))
    finally pw.close()
  }

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum
}

/** Peak driver heap in use right after a garbage collection — the live
  * set, which unlike raw heap use does not just track the young
  * generation's size. Starts from the heap left by the last collection.
  */
final class LiveHeapPeak {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val peak = new java.util.concurrent.atomic.AtomicLong(
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(p => heapPools(p.getName))
      .flatMap(p => Option(p.getCollectionUsage)).map(_.getUsed).sum)
  private val listener: NotificationListener = (n: Notification, _: AnyRef) =>
    if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.collect {
        case (pool, u) if heapPools(pool) => u.getUsed
      }.sum
      peak.accumulateAndGet(used, math.max(_, _))
    }
  private val emitters = ManagementFactory.getGarbageCollectorMXBeans.asScala.collect {
    case e: NotificationEmitter => e
  }
  emitters.foreach(_.addNotificationListener(listener, null, null))

  /** Stop listening; the peak in bytes. */
  def stop(): Long = {
    emitters.foreach(_.removeNotificationListener(listener))
    peak.get
  }
}

/** Share of queries within e of the exact AVG (a failed query is a miss),
  * and mean |answer − exact| / e over the successful ones.
  */
object Accuracy {
  def apply(qs: Seq[QueryRec], exact: Double, e: Double): (Double, Double) = {
    val err = qs.filter(_.failure.isEmpty).map(q => math.abs(q.answer - exact) / e)
    (err.count(_ <= 1.0).toDouble / qs.size, if (err.isEmpty) Double.NaN else err.sum / err.size)
  }
}

/** Per traced i.i.d. query: `Modulation.solveBlock` time over all blocks
  * and the useful share of the sampled rows.
  */
final case class AuxRec(query: Int, solveUs: Double, usefulFrac: Double)

object Seeds {
  /** Seed of query `i` (i < 0: warm-ups and data) under workload seed `seed`. */
  def mix(seed: Long, i: Long): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + i * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    (z ^ (z >>> 31)) & 0xFFFFFFFL
  }
}
