package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.{Boundaries, IslaParams, Moments, PreEstimation, Region, Sampler, SamplingPass}

/** The measure-biased comparators of §VIII-C, re-implemented from the
  * paper's definitions (the sample+seek originals are closed source).
  *
  * MV  — "probabilities on values": uniform samples re-weighted by
  *       Eq. 4, prob(a) = a/Σa′, so the AVG estimate collapses to
  *       Σa²/Σa over the sample. On N(μ,σ²) this converges to
  *       (μ²+σ²)/μ — the ≈104 signature of Table III.
  *
  * MVB — "probabilities on values and boundaries": samples are split by
  *       the paper's data boundaries (all five regions); each region's
  *       probability mass is n_reg/m (∝ its sample count) and is spread
  *       within the region ∝ value, giving
  *       answer = Σ_reg (n_reg/m)·(Σ_reg a²/Σ_reg a).
  *       MVB therefore needs the same pre-estimation pass as ISLA to fix
  *       sketch₀ and σ for the boundaries.
  */
object MeasureBiased {

  /** MV: measure-biased re-weighting on values only. */
  def runMV(df: DataFrame, valueCol: String, rate: Double,
            blockCol: String = "block", seed: Long = 17L): BaselineResult = {
    require(rate > 0 && rate <= 1, s"rate must be in (0,1]: $rate")
    val blocks = Sampler.merge(
      Sampler.fold(Sampler.sample(df, valueCol, blockCol, Sampler.everyBlock(SamplingPass(seed, rate)))).collect())
      .values.toSeq
    require(blocks.nonEmpty, "MV sample came back empty")
    val partials = blocks.map(m => m.block -> (if (m.region.sum == 0) 0.0 else m.region.sum2 / m.region.sum))
    val answer = partials.zip(blocks).map { case ((_, est), m) => est * m.n }.sum / blocks.map(_.n).sum
    BaselineResult(answer, partials)
  }

  /** MVB: measure-biased re-weighting on values and data boundaries.
    *
    * Runs its own pre-estimation (pilot σ and sketch₀) to build the same
    * boundaries ISLA uses, then one pass folding per-region {n, Σa, Σa²}
    * for each block.
    */
  def runMVB(df: DataFrame, valueCol: String, rate: Double,
             p: IslaParams = IslaParams(),
             sizes: Option[Map[Long, Long]] = None,
             blockCol: String = "block", seed: Long = 19L): BaselineResult = {
    require(rate > 0 && rate <= 1, s"rate must be in (0,1]: $rate")
    val blockSizes = sizes.getOrElse(Moments.blockSizes(df, blockCol, valueCol))
    val m = blockSizes.values.sum
    val pre = PreEstimation.run(df, valueCol, m, p, seed, blockCol)
    val bounds = Boundaries(pre.sketch0, pre.sigma, p.p1, p.p2)

    val v = col("v")
    val regions = Sampler.merge(Sampler.fold(
      Sampler.sample(df, valueCol, blockCol, Sampler.everyBlock(SamplingPass(seed + 2, rate, bounds, 0.0))),
      slot = Boundaries.regionCol(v, col("p"))).collect())
      .values.toSeq.groupBy(_.block)
    val blocks = regions.keys.toSeq.sorted.map { b =>
      val regs = regions(b)
      val nB = regs.map(_.n).sum
      // Σ_reg (n_reg/m)·(Σa²/Σa); an all-zero region contributes nothing.
      (b, regs.map(_.region).map(r => if (r.sum == 0) 0.0 else (r.n.toDouble / nB) * (r.sum2 / r.sum)).sum, nB)
    }
    val answer = blocks.map { case (_, est, nB) => est * nB }.sum / blocks.map(_._3).sum
    BaselineResult(answer, blocks.map { case (b, est, _) => (b, est) })
  }

  /** Driver-side reference MVB estimate over explicit samples (tests). */
  def mvbOf(samples: Seq[Double], bounds: Boundaries): Double = {
    val m = samples.size.toDouble
    require(m > 0, "empty sample")
    Region.all.map { reg =>
      val in = samples.filter(a => bounds.classify(a) == reg)
      val s = in.sum
      if (s == 0) 0.0 else (in.size / m) * (in.map(a => a * a).sum / s)
    }.sum
  }
}
