package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** Output of the Pre-estimation module (§III): the estimated standard
  * deviation, the initial sketch estimator, and a pilot minimum used to
  * shift negative data (footnote 1 of §IV-A2).
  */
final case class PreEstimate(sigma: Double, sketch0: Double, pilotMin: Double, pilotMean: Double)

/** Pre-estimation module (§III): two small uniform Spark passes.
  *
  * Pass 1 draws a fixed-size pilot (proportionally across blocks — a
  * global Bernoulli rate achieves exactly that) to estimate σ; σ only
  * feeds Eq. 1 and the data boundaries, so its own error needs no
  * assurance (§III-A). Pass 2 draws the sketch sample at the Eq.-1 rate
  * for the *relaxed* precision t_e·e, giving sketch₀ its relaxed
  * confidence interval (sketch₀ − t_e·e, sketch₀ + t_e·e) (§III-B).
  */
object PreEstimation {

  /** Run both pilot passes.
    *
    * @param df       blocked input data
    * @param valueCol numeric aggregation column
    * @param dataSize total data size M (from metadata / block sizes)
    * @param p        ISLA parameters (β, e, t_e, pilot size)
    * @param seed     salt of pass 1's draw; pass 2 uses seed+1
    * @param blockCol block-id column
    */
  def run(df: DataFrame, valueCol: String, dataSize: Long, p: IslaParams, seed: Long = 7L,
          blockCol: String = "block"): PreEstimate = {
    val v = col("v")

    // Pass 1: σ (and min, for the negative-data shift) from a small pilot.
    val pilotRate = math.min(1.0, p.sigmaPilot.toDouble / dataSize)
    val zero = lit(0.0)
    val Row(sigma: Double, pilotMin: Double, pilotMean: Double) =
      Sampler.sample(df, valueCol, blockCol, Sampler.everyBlock(SamplingPass(seed, pilotRate)))
        .agg(coalesce(stddev_samp(v), zero), coalesce(min(v), zero), coalesce(avg(v), zero))
        .collect()(0)
    require(!sigma.isNaN, "pilot produced NaN sigma — empty input?")

    // Pass 2: sketch₀ at the relaxed precision t_e·e (Eq. 1 with e' = t_e·e).
    val sketchRate =
      if (sigma <= 0) pilotRate // constant column: any sample gives the exact mean
      else SampleSize.samplingRate(sigma, p.te * p.e, p.beta, dataSize)
    val r2 = Sampler.sample(df, valueCol, blockCol, Sampler.everyBlock(SamplingPass(seed + 1, sketchRate)))
      .agg(avg(v).as("sk")).collect()(0)
    val sketch0 = if (r2.isNullAt(0)) pilotMean else r2.getDouble(0)

    PreEstimate(sigma = math.max(sigma, 0.0), sketch0 = sketch0,
      pilotMin = pilotMin, pilotMean = pilotMean)
  }
}
