package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}

import scala.collection.concurrent.TrieMap

import org.apache.commons.math3.distribution.UniformRealDistribution
import org.apache.commons.math3.stat.inference.KolmogorovSmirnovTest
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.baselines.{MeasureBiased, StratifiedSampling, UniformSampling}
import repro.data.Distributions

/** Tests for the one Bernoulli sampler: the statistics of its hashed draw,
  * the block-keyed pass map, and the property it exists for — consecutive
  * queries reuse the code Spark generated for the first.
  */
class SamplerSpec extends SparkSpec {

  private val rows = 1000000L

  /** `n` rows whose value is their row number, in 10 blocks and 8 partitions. */
  private def numbered(n: Long): DataFrame =
    spark.range(0, n, 1, 8).select(col("id").cast("double").as("value"), (col("id") % 10).as("block"))

  private def kept(df: DataFrame, salt: Long, rate: Double): Set[Double] = {
    import spark.implicits._
    Sampler.sample(df, "value", "block", Sampler.everyBlock(SamplingPass(salt, rate)))
      .select(col("v")).as[Double].collect().toSet
  }

  test("the kept share at rate r is binomial within 4σ, and r = 1 keeps every row") {
    val df = numbered(rows).cache()
    try {
      for (r <- Seq(0.001, 0.1, 0.5)) {
        val n = Sampler.sample(df, "value", "block", Sampler.everyBlock(SamplingPass(7L, r))).count()
        val sd = math.sqrt(rows * r * (1 - r))
        assert(math.abs(n - rows * r) <= 4 * sd, s"r=$r kept $n, expected ${rows * r} ± ${4 * sd}")
      }
      assert(Sampler.sample(df, "value", "block", Sampler.everyBlock(SamplingPass(7L, 1.0))).count() == rows)
    } finally { df.unpersist(); () }
  }

  test("the draws pass a Kolmogorov–Smirnov test against U(0,1)") {
    import spark.implicits._
    val draws = numbered(rows).select(Sampler.uniform(lit(11L), monotonically_increasing_id()))
      .as[Double].collect()
    assert(draws.forall(u => u >= 0.0 && u < 1.0))
    val pValue = new KolmogorovSmirnovTest().kolmogorovSmirnovTest(new UniformRealDistribution(0, 1), draws)
    assert(pValue > 0.001, s"KS p-value $pValue")
  }

  test("the same salt draws the same sample, a new salt a different one") {
    val df = numbered(100000L).cache()
    try {
      val a = kept(df, 3L, 0.1)
      assert(kept(df, 3L, 0.1) == a)
      assert(kept(df, 4L, 0.1) != a)
    } finally { df.unpersist(); () }
  }

  test("samples under different salts overlap in ≈ r²·M rows (independent passes, §III)") {
    val df = numbered(rows).cache()
    try {
      for (r <- Seq(0.1, 0.5)) {
        val overlap = kept(df, 21L, r).intersect(kept(df, 22L, r)).size
        val p = r * r
        val sd = math.sqrt(rows * p * (1 - p))
        assert(math.abs(overlap - rows * p) <= 4 * sd, s"r=$r overlap $overlap, expected ${rows * p} ± ${4 * sd}")
      }
    } finally { df.unpersist(); () }
  }

  test("the pass map gives each block its own parameters") {
    import spark.implicits._
    val df = (0 until 30).map(i => (i.toDouble, (i % 3).toLong)).toDF("value", "block")
    def lookup(passes: Map[Long, SamplingPass]): Map[Long, (Double, Double)] =
      Sampler.sample(df, "value", "block", passes)
        .select(col("block"), col("p.lo2"), col("p.shift")).distinct().collect()
        .map(r => r.getLong(0) -> (r.getDouble(1), r.getDouble(2))).toMap
    val own = (0L until 3L).map(b => b -> SamplingPass(1L, 1.0, lo2 = b + 0.5, shift = b.toDouble)).toMap
    assert(lookup(own) == Map(0L -> (0.5, 0.0), 1L -> (1.5, 1.0), 2L -> (2.5, 2.0)))
    // A block without an entry of its own takes the AnyBlock pass.
    val fallback = own - 2L + (Sampler.AnyBlock -> SamplingPass(1L, 1.0, lo2 = 9.0, shift = 5.0))
    assert(lookup(fallback)(2L) == (9.0, 5.0))
    // Values come back shifted by their block's pass.
    val v = Sampler.sample(df, "value", "block", own).select(col("block"), col("v")).as[(Long, Double)].collect()
    assert(v.map { case (b, x) => x - b }.sorted.toSeq == (0 until 30).map(_.toDouble))
  }

  test("consecutive queries reuse their generated code and run the same jobs") {
    val df = Distributions.normal(spark, 100000L, 100.0, 20.0, 10, seed = 96).cache()
    try {
      val sizes = Moments.blockSizes(df)
      val p = IslaParams(e = 1.0)
      val queries: Seq[(String, Long => Any)] = Seq(
        "Isla.run" -> (s => Isla.run(df, "value", p, None, seed = s)),
        "IslaNonIid.run" -> (s => IslaNonIid.run(df, "value", p, Some(sizes), seed = s)),
        "UniformSampling.run" -> (s => UniformSampling.run(df, "value", 0.01 + s * 1e-4, seed = s)),
      )
      for ((name, query) <- queries) {
        val coldJobs = jobsOf(query(31L))
        val compiled = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
        val warmJobs = jobsOf(query(57L))
        assert(CodegenMetrics.METRIC_COMPILATION_TIME.getCount == compiled,
          s"$name compiled ${CodegenMetrics.METRIC_COMPILATION_TIME.getCount - compiled} classes on a warm query")
        assert(warmJobs == coldJobs, s"$name: $coldJobs jobs cold, $warmJobs warm")
      }
    } finally { df.unpersist(); () }
  }

  test("each sampling pass is one Spark job: ISLA 3 (5 without sizes), non-i.i.d. 3, US 1") {
    val df = Distributions.normal(spark, 100000L, 100.0, 20.0, 10, seed = 97).cache()
    try {
      val sizes = Moments.blockSizes(df)
      val p = IslaParams(e = 1.0)
      assert(jobsOf(Isla.run(df, "value", p, Some(sizes), seed = 5L)) == 3)
      assert(jobsOf(Isla.run(df, "value", p, None, seed = 5L)) == 5)
      assert(jobsOf(IslaNonIid.run(df, "value", p, Some(sizes), seed = 5L)) == 3)
      assert(jobsOf(UniformSampling.run(df, "value", 0.01, seed = 5L)) == 1)
    } finally { df.unpersist(); () }
  }

  test("pilot σ at rate 1 on 10⁹ + N(0,1) matches DuckDB to 1e-12, without cancellation") {
    val rows = 20000L
    val df = Distributions.normal(spark, rows, 1e9, 1.0, 4, seed = 98).cache()
    try {
      val pre = PreEstimation.run(df, "value", rows, IslaParams(sigmaPilot = rows.toInt), seed = 5L)
      // DuckDB's one-pass stddev_samp rounds its running mean at this offset,
      // so the exact reference is the two-pass form over compensated sums.
      val (_, duck) = Oracle.query(
        """SELECT sqrt(fsum((v - m) * (v - m)) / (count(*) - 1)) AS exact, stddev_samp(v) AS one_pass
          |FROM (SELECT CAST(value AS DOUBLE) AS v FROM t),
          |     (SELECT fsum(CAST(value AS DOUBLE)) / count(*) AS m FROM t)""".stripMargin, "t" -> df)
      val (exact, onePass) = (duck.head.getDouble(0), duck.head.getDouble(1))
      assert(math.abs(pre.sigma - exact) <= 1e-12 * exact, s"σ=${pre.sigma} exact=$exact")
      assert(math.abs(pre.sigma - onePass) <= 1e-7 * exact, s"σ=${pre.sigma} stddev_samp=$onePass")
      // Σa² − n·mean² would lose every digit: a² ≈ 10¹⁸ has an ulp of 128.
    } finally { df.unpersist(); () }
  }

  /** Every entry point that scans `df`: ISLA (with and without sizes), the
    * non-i.i.d. variant, the sampling phase and the four baselines.
    */
  private def entryPoints(df: DataFrame): Seq[(String, () => Any)] = {
    val p = IslaParams(e = 1.0)
    val sizes = Map(0L -> 5000L, 1L -> 5000L)
    Seq(
      "Isla.run" -> (() => Isla.run(df, "value", p, Some(sizes))),
      "Isla.run without sizes" -> (() => Isla.run(df, "value", p)),
      "IslaNonIid.run" -> (() => IslaNonIid.run(df, "value", p, Some(sizes))),
      "Moments.collect" -> (() => Moments.collect(df, "value", 0.01, Boundaries(100, 20, 0.5, 2), sizes)),
      "UniformSampling.run" -> (() => UniformSampling.run(df, "value", 0.01)),
      "StratifiedSampling.run" -> (() => StratifiedSampling.run(df, "value", 0.01, Some(sizes))),
      "MeasureBiased.runMV" -> (() => MeasureBiased.runMV(df, "value", 0.01)),
      "MeasureBiased.runMVB" -> (() => MeasureBiased.runMVB(df, "value", 0.01, p, Some(sizes))),
    )
  }

  /** 10 000 rows of N(100,20²) in blocks 0 and 1, with row 4321 replaced. */
  private def withBadRow(value: Column, block: Column): DataFrame = {
    val bad = monotonically_increasing_id() === 4321
    Distributions.normal(spark, 10000L, 100.0, 20.0, 2, seed = 99).coalesce(1)
      .select(when(bad, value).otherwise(col("value")).as("value"), when(bad, block).otherwise(col("block")).as("block"))
  }

  test("a NaN or ±∞ value fails every entry point, naming the column, even outside the sample") {
    for (x <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val df = withBadRow(lit(x), col("block")).cache()
      try entryPoints(df).foreach { case (name, query) =>
        val err = intercept[Exception](query())
        assert(err.getMessage.contains(s"non-finite value $x in column 'value'"), s"$name: ${err.getMessage}")
      } finally { df.unpersist(); () }
    }
  }

  test("a null block id fails every entry point, naming the column") {
    val df = withBadRow(col("value"), lit(null).cast("long")).cache()
    try entryPoints(df).foreach { case (name, query) =>
      val err = intercept[Exception](query())
      assert(err.getMessage.contains("null block id in column 'block'"), s"$name: ${err.getMessage}")
    } finally { df.unpersist(); () }
  }

  /** Spark jobs started by `body` on this thread. */
  private def jobsOf(body: => Any): Int = {
    val sc = spark.sparkContext
    val key = "repro.test.jobs"
    val started = TrieMap.empty[Int, String]
    val fenceEnded = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(key))).foreach(started.put(e.jobId, _))
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (started.get(e.jobId).contains("fence")) fenceEnded.countDown()
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(key, "body")
      try body finally sc.setLocalProperty(key, null)
      // The listener bus delivers in order: once the fence job has ended,
      // every job the body started has been seen.
      sc.setLocalProperty(key, "fence")
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(key, null)
      assert(fenceEnded.await(30, TimeUnit.SECONDS), "Spark listener events did not arrive")
    } finally sc.removeSparkListener(listener)
    started.values.count(_ == "body")
  }
}
