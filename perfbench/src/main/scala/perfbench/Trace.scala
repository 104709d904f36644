package perfbench

import scala.collection.mutable

import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule

import repro.core.{IslaParams, ModulationCase}

/** Per-layer metrics of a traced run.
  *
  * Every other query is traced; the rest run untraced in the same process,
  * which gives `trace.overhead_frac`. Spark layers come from the jobs the
  * [[JobLog]] attributed; the driver-only modulation layer from the
  * per-query [[AuxRec]]s and the queries' own `BlockResult`s.
  */
object Trace {

  private val sparkLayers: Seq[(String, Seq[String])] = Seq(
    "blockSizes" -> Seq("wall_ms", "jobs", "task_ms", "input_mb"),
    "preEstimation" -> Seq("wall_ms", "jobs", "tasks", "task_ms", "input_mb", "shuffle_kb"),
    "moments" -> Seq("wall_ms", "jobs", "tasks", "task_ms", "input_mb", "shuffle_kb"),
    "nonIid.preEstimate" -> Seq("wall_ms", "jobs", "task_ms"),
  )

  private val units = Map("wall_ms" -> "ms", "jobs" -> "count", "tasks" -> "count",
    "task_ms" -> "ms", "input_mb" -> "MB", "shuffle_kb" -> "KB")

  /** One layer's work within one query. `wallMs` spans its first job's
    * submission to its last job's end.
    */
  private final case class LayerWork(wallMs: Double, jobs: Int, tasks: Long, taskMs: Long,
                                     inputBytes: Long, shuffleBytes: Long)

  def metrics(qs: Seq[QueryRec], jobs: Map[Int, Seq[JobRec]], aux: Seq[AuxRec], w: Workload,
              p: IslaParams, exact: Double, info: mutable.Map[String, Any],
              writeSpans: Seq[Span] => Unit): Seq[(String, (Double, String))] = {
    val traced = qs.filter(q => q.traced && q.failure.isEmpty)
    val untraced = qs.filter(q => !q.traced && q.failure.isEmpty)
    require(traced.nonEmpty, "no traced query succeeded")
    val spans = mutable.ArrayBuffer.empty[Span]
    val layersSeen = mutable.Map.empty[String, Int].withDefaultValue(0)

    val work: Seq[(QueryRec, Map[String, LayerWork])] = traced.map { q =>
      spans += Span("query", q.startMs, q.endMs, "", q.i)
      val byLayer = jobs.getOrElse(q.i, Nil).groupBy(_.layer).map { case (layer, js) =>
        val start = js.map(_.submitMs).min
        val end = js.map(_.endMs).max
        spans += Span(layer, start, end, "query", q.i)
        js.foreach(j => spans += Span(s"job:${j.jobId}", j.submitMs, j.endMs, layer, q.i))
        layersSeen(layer) += js.size
        layer -> LayerWork(end - start, js.size, js.map(_.tasks.get).sum, js.map(_.taskMs.get).sum,
          js.map(_.inputBytes.get).sum, js.map(_.shuffleBytes.get).sum)
      }
      q -> byLayer
    }
    writeSpans(spans.toSeq)

    def perQuery(layer: String)(f: LayerWork => Double): Seq[Double] =
      work.map { case (_, m) => m.get(layer).map(f).getOrElse(0.0) }

    val sparkMetrics = for ((layer, names) <- sparkLayers; name <- names) yield {
      val xs = perQuery(layer)(lw => name match {
        case "wall_ms" => lw.wallMs
        case "jobs" => lw.jobs.toDouble
        case "tasks" => lw.tasks.toDouble
        case "task_ms" => lw.taskMs.toDouble
        case "input_mb" => lw.inputBytes / 1048576.0
        case "shuffle_kb" => lw.shuffleBytes / 1024.0
      })
      // Times vary run to run, so take their median; counts are means.
      val v = if (name.endsWith("_ms")) Stats.median(xs) else Stats.mean(xs)
      s"$layer.$name" -> (v, units(name))
    }

    val blocks = traced.flatMap(_.result.toSeq.flatMap(_.blocks))
    val clamped =
      if (w.nonIid) 0 // per-block sketch₀ is not part of the non-i.i.d. result
      else traced.flatMap(_.result).map { r =>
        val sketch0 = r.sketch0 + r.shift
        val (lo, hi) = (sketch0 - p.te * p.e, sketch0 + p.te * p.e)
        r.blocks.count(b => b.modCase != ModulationCase.Case5 && (b.avg == lo || b.avg == hi))
      }.sum
    val preWall = perQuery("nonIid.preEstimate")(_.wallMs)
    val taskMs = work.map { case (_, m) => m.values.map(_.taskMs).sum.toDouble }

    info("layers_seen") = layersSeen.toMap
    info("traced_queries") = traced.size
    info("untraced_queries") = untraced.size

    val (within, errMean) = Accuracy(qs.take(w.minQueries), exact, p.e)

    sparkMetrics ++ Seq(
      "accuracy.within_e_frac" -> (within, "fraction"),
      "accuracy.abs_err_over_e_mean" -> (errMean, "ratio"),
      "moments.useful_frac" -> (Stats.meanOr0(aux.map(_.usefulFrac)), "fraction"),
      "modulation.us_per_query" -> (if (aux.isEmpty) 0.0 else Stats.median(aux.map(_.solveUs)), "us"),
      "modulation.iters_mean" -> (Stats.meanOr0(blocks.map(_.iterations.toDouble)), "count"),
      "modulation.case5_frac" -> (Stats.meanOr0(blocks.map(b => if (b.modCase == ModulationCase.Case5) 1.0 else 0.0)), "fraction"),
      "modulation.clamped_frac" -> (if (blocks.isEmpty) 0.0 else clamped.toDouble / blocks.size, "fraction"),
      "nonIid.rest.wall_ms" -> (if (w.nonIid) Stats.median(traced.map(_.ms).zip(preWall).map { case (t, pre) => t - pre }) else 0.0, "ms"),
      "nonIid.rest.jobs" -> (Stats.mean(perQuery("nonIid.rest")(_.jobs.toDouble)), "count"),
      "spark.busy_frac" -> (Stats.median(traced.map(_.ms).zip(taskMs).map { case (t, busy) => busy / (t * Pins.cores) }), "fraction"),
      "spark.unattributed_jobs" -> (layersSeen(JobLog.Unattributed).toDouble, "count"),
      "driver.gc_ms" -> (Stats.mean(traced.map(_.gcMs.toDouble)), "ms"),
      "trace.overhead_frac" -> (if (untraced.isEmpty) 0.0
        else Stats.median(traced.map(_.ms)) / Stats.median(untraced.map(_.ms)) - 1.0, "fraction"),
    )
  }
}

object Stats {
  def mean(xs: Seq[Double]): Double = xs.sum / xs.size
  def meanOr0(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else mean(xs)
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear interpolation between closest ranks (numpy's default). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val h = (s.size - 1) * q
    val lo = math.floor(h).toInt
    val hi = math.min(lo + 1, s.size - 1)
    if (s(lo) == s(hi)) s(lo) else s(lo) + (h - lo) * (s(hi) - s(lo))
  }

  /** Highest percentile of {50, 75, 90, 95, 99} with at least ten of `n`
    * samples beyond it (50 if none has), and how many samples lie beyond.
    */
  def tailPercentile(n: Int): (Int, Int) = {
    def beyond(p: Int) = n - math.ceil(p * n / 100.0).toInt
    val p = Seq(99, 95, 90, 75).find(beyond(_) >= 10).getOrElse(50)
    (p, beyond(p))
  }
}

/** JSON for the result and INFO lines. */
object Json {
  private val mapper = JsonMapper.builder().addModule(DefaultScalaModule).build()

  def apply(v: Any): String = mapper.writeValueAsString(v)
}
