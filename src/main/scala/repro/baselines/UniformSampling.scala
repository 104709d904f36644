package repro.baselines

import org.apache.spark.sql.DataFrame

import repro.core.{Moments, Sampler, SamplingPass}

/** Result of a baseline estimator: the final answer and the per-block
  * partial answers (Table IV reports partials for the comparators too).
  */
final case class BaselineResult(answer: Double, partials: Seq[(Long, Double)])

/** Uniform sampling (US, §VIII-B/F): one global Bernoulli sample, the
  * answer is the plain sample mean — every sample weighted identically,
  * which is exactly the behaviour ISLA's leverages improve on.
  */
object UniformSampling {

  /** Estimate AVG(valueCol) from a Bernoulli sample at `rate`. */
  def run(df: DataFrame, valueCol: String, rate: Double,
          blockCol: String = "block", seed: Long = 11L): BaselineResult = {
    require(rate > 0 && rate <= 1, s"rate must be in (0,1]: $rate")
    val blocks = Sampler.merge(
      Sampler.fold(Sampler.sample(df, valueCol, blockCol, Sampler.everyBlock(SamplingPass(seed, rate)))).collect())
      .values.toSeq
    val totalN = blocks.map(_.n).sum
    require(totalN > 0, "uniform sample came back empty — rate too small for this data size")
    // Global sample mean; partials are the per-block sample means.
    BaselineResult(blocks.map(_.region.sum).sum / totalN, blocks.map(m => m.block -> m.mean))
  }
}

/** Stratified sampling (STS, §VIII-B/F). The paper gives no construction
  * detail; in its blocked storage model the blocks are the natural
  * strata, so we stratify by block with proportional allocation and use
  * the textbook stratified estimator Σ (|Bⱼ|/M)·mean(sampleⱼ).
  */
object StratifiedSampling {

  /** Estimate AVG(valueCol) with block strata at per-stratum rate `rate`. */
  def run(df: DataFrame, valueCol: String, rate: Double,
          sizes: Option[Map[Long, Long]] = None,
          blockCol: String = "block", seed: Long = 13L): BaselineResult = {
    require(rate > 0 && rate <= 1, s"rate must be in (0,1]: $rate")
    val blockSizes = sizes.getOrElse(Moments.blockSizes(df, blockCol, valueCol))
    val m = blockSizes.values.sum
    val passes = blockSizes.map { case (b, _) => b -> SamplingPass(seed, rate) }
    val means = Sampler.merge(Sampler.fold(Sampler.sample(df, valueCol, blockCol, passes)).collect())
      .map { case ((b, _), m) => b -> m.mean }
    val partials = blockSizes.keys.toSeq.sorted.map { b =>
      // A stratum whose sample is empty contributes its size with the
      // overall sampled mean (no information → no correction).
      b -> means.getOrElse(b, means.values.sum / math.max(means.size, 1))
    }
    val answer = partials.map { case (b, p) => p * blockSizes(b) }.sum / m
    BaselineResult(answer, partials)
  }
}
