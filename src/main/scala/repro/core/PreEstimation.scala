package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit

/** Output of the Pre-estimation module (§III): the estimated standard
  * deviation, the initial sketch estimator, and a pilot minimum used to
  * shift negative data (footnote 1 of §IV-A2).
  */
final case class PreEstimate(sigma: Double, sketch0: Double, pilotMin: Double, pilotMean: Double)

/** Pre-estimation module (§III): two small uniform Spark passes, each one
  * Spark job that folds its sample to moments ([[Sampler.fold]]).
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
    // Both passes pool every block under one key.
    val pooled = lit(Sampler.AnyBlock)

    // Pass 1: σ (and min, for the negative-data shift) from a small pilot.
    val pilotRate = math.min(1.0, p.sigmaPilot.toDouble / dataSize)
    val pilot = Sampler.merge(Sampler.fold(
      Sampler.sample(df, valueCol, blockCol, Sampler.everyBlock(SamplingPass(seed, pilotRate))), pooled).collect())
      .values.headOption
    val sigma = pilot.fold(0.0)(_.stddev)
    val pilotMean = pilot.fold(0.0)(_.mean)

    // Pass 2: sketch₀ at the relaxed precision t_e·e (Eq. 1 with e' = t_e·e).
    val sketchRate =
      if (sigma <= 0) pilotRate // constant column: any sample gives the exact mean
      else SampleSize.samplingRate(sigma, p.te * p.e, p.beta, dataSize)
    val sketch = Sampler.merge(Sampler.fold(
      Sampler.sample(df, valueCol, blockCol, Sampler.everyBlock(SamplingPass(seed + 1, sketchRate))), pooled).collect())
      .values.headOption

    PreEstimate(sigma = sigma, sketch0 = sketch.fold(pilotMean)(_.mean),
      pilotMin = pilot.fold(0.0)(_.min), pilotMean = pilotMean)
  }
}
