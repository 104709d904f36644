package repro.core

import org.apache.spark.sql.DataFrame

/** Per-block pre-estimates for the non-i.i.d. extension. */
final case class BlockPre(block: Long, size: Long, sigma: Double, sketch0: Double, pilotMin: Double)

/** ISLA for non-i.i.d. blocks (§VII-C).
  *
  * Differences from the i.i.d. pipeline:
  *  - a pilot is drawn *in each block*, yielding per-block σⱼ and
  *    sketch₀ⱼ, hence per-block data boundaries;
  *  - block leverages `blevⱼ = (1+σⱼ²)/(b+Σσᵢ²)` reflect local variance,
  *    and block Bⱼ samples at rate `r·M·blevⱼ/|Bⱼ|` — dispersed blocks
  *    are sampled more (inspired by bi-level sampling [1]);
  *  - the overall rate r comes from Eq. 1 with the pooled pilot σ.
  *
  * Every pass draws through the [[Sampler]] with a [[SamplingPass]] per
  * block; the sampling phase is [[Moments.collect]] with per-block passes.
  */
object IslaNonIid {

  /** Per-block pilot pass: σⱼ, pilot mean/min, and a second per-block
    * pass for sketch₀ⱼ at the relaxed precision t_e·e; one Spark job each.
    */
  def preEstimate(
      df: DataFrame,
      valueCol: String,
      sizes: Map[Long, Long],
      p: IslaParams,
      blockCol: String = "block",
      seed: Long = 7L,
  ): Seq[BlockPre] = {
    val pilotRate = (n: Long) => math.min(1.0, p.sigmaPilot.toDouble / n)
    val pilotPasses = sizes.map { case (b, n) => b -> SamplingPass(seed, pilotRate(n)) }
    val pilot = Sampler.merge(Sampler.fold(Sampler.sample(df, valueCol, blockCol, pilotPasses)).collect())

    val sketchPasses = sizes.map { case (b, n) =>
      val sd = pilot.get((b, 0)).fold(0.0)(_.stddev)
      b -> SamplingPass(seed + 1, if (sd <= 0) pilotRate(n) else SampleSize.samplingRate(sd, p.te * p.e, p.beta, n))
    }
    val sketch = Sampler.merge(Sampler.fold(Sampler.sample(df, valueCol, blockCol, sketchPasses)).collect())

    sizes.keys.toSeq.sorted.map { b =>
      val pb = pilot.get((b, 0))
      val sketch0 = sketch.get((b, 0)).fold(pb.fold(0.0)(_.mean))(_.mean)
      BlockPre(b, sizes(b), pb.fold(0.0)(_.stddev), sketch0, pb.fold(0.0)(_.min))
    }
  }

  /** Block leverage `blevⱼ = (1+σⱼ²)/(b+Σσᵢ²)` (§VII-C). */
  def blockLeverages(pres: Seq[BlockPre]): Map[Long, Double] = {
    val b = pres.size
    val sumVar = pres.map(pr => pr.sigma * pr.sigma).sum
    pres.map(pr => pr.block -> (1.0 + pr.sigma * pr.sigma) / (b + sumVar)).toMap
  }

  /** Run non-i.i.d. ISLA end to end. */
  def run(
      df: DataFrame,
      valueCol: String,
      p: IslaParams = IslaParams(),
      sizes: Option[Map[Long, Long]] = None,
      blockCol: String = "block",
      seed: Long = 7L,
  ): IslaResult = {
    val blockSizes = sizes.getOrElse(Moments.blockSizes(df, blockCol, valueCol))
    val m = blockSizes.values.sum
    require(m > 0, "empty input")

    val pres = preEstimate(df, valueCol, blockSizes, p, blockCol, seed)

    // Footnote-1 shift: one global translation keeps every block positive.
    val minSeen = pres.map(_.pilotMin).min
    val maxSigma = math.max(pres.map(_.sigma).max, 1.0)
    val shift = if (minSeen <= 0) -minSeen + maxSigma else 0.0

    // Overall rate from the pooled dispersion (upper bound of block σs is a
    // faithful stand-in for the pooled pilot σ — it only scales r).
    val pooledSigma = math.sqrt(
      pres.map(pr => pr.size.toDouble * (pr.sigma * pr.sigma + pr.sketch0 * pr.sketch0)).sum / m
        - math.pow(pres.map(pr => pr.size.toDouble * pr.sketch0).sum / m, 2)
    ).max(1e-9)
    val r = p.rateOverride.getOrElse(
      SampleSize.samplingRate(pooledSigma, p.e, p.beta, m) * p.rateFraction)

    val blev = blockLeverages(pres)
    val sketch0 = pres.map(pr => pr.block -> (pr.sketch0 + shift)).toMap
    val passes = pres.map { pr =>
      pr.block -> SamplingPass(seed + 2, math.min(1.0, r * m * blev(pr.block) / pr.size),
        Boundaries(sketch0(pr.block), pr.sigma, p.p1, p.p2), shift)
    }.toMap
    val blocks = Moments.collect(df, valueCol, passes, blockSizes, blockCol)
      .map(bm => Modulation.solveBlock(bm, sketch0(bm.block), p))
    val answer = Isla.summarize(blocks) - shift
    IslaResult(answer, Double.NaN, pooledSigma, r, m, shift, blocks)
  }
}
