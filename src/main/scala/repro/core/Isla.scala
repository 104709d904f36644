package repro.core

import org.apache.spark.sql.DataFrame

/** Full ISLA output: the final answer plus everything the paper's
  * evaluation section reports about a run (sketch₀, rate, partials).
  */
final case class IslaResult(
    answer: Double,
    sketch0: Double,
    sigma: Double,
    rate: Double,
    dataSize: Long,
    shift: Double,
    blocks: Seq[BlockResult],
) {
  /** Per-block partial answers (Table IV's "Partial 1..b"). */
  def partials: Seq[Double] = blocks.map(_.avg)
}

/** ISLA end to end (Fig. 2): Pre-estimation → per-block Calculation
  * (sampling + iteration) → Summarization.
  *
  * The two data-touching phases are Spark jobs drawn and folded by the
  * [[Sampler]] (the two pilot passes and the single-pass per-block moments
  * of Algorithm 1, one job each); the iteration phase is
  * O(b·log(|D⁰|/thr)) scalar work on the driver, and Summarization is the
  * size-weighted merge Σ avg_j·|Bⱼ|/M.
  *
  * Negative data are handled per footnote 1 of §IV-A2: when the pilot
  * sees values ≤ 0 the sampling phase runs on `value + shift`
  * (shift = σ − pilotMin, keeping everything strictly positive) and the
  * final answer is translated back.
  */
object Isla {

  /** Run ISLA on a blocked DataFrame.
    *
    * @param df       input with `valueCol` (numeric) and `blockCol` (block id)
    * @param valueCol aggregation column
    * @param p        algorithm parameters (paper defaults)
    * @param sizes    optional precomputed block sizes (metadata); computed if
    *                 absent; a block of `df` missing from them fails the query
    * @param seed     RNG seed; the pilot uses seed, the main pass seed+2
    */
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

    val pre = PreEstimation.run(df, valueCol, m, p, seed, blockCol)

    // Footnote 1: translate to strictly positive values when needed.
    val shift = if (pre.pilotMin <= 0) -pre.pilotMin + math.max(pre.sigma, 1.0) else 0.0
    val sketch0 = pre.sketch0 + shift

    val rate = p.rateOverride.getOrElse {
      if (pre.sigma <= 0) math.min(1.0, p.sigmaPilot.toDouble / m) // constant data
      else math.min(1.0, SampleSize.samplingRate(pre.sigma, p.e, p.beta, m) * p.rateFraction)
    }
    val bounds = Boundaries(sketch0, pre.sigma, p.p1, p.p2)

    val moments = Moments.collect(df, valueCol, rate, bounds, blockSizes, blockCol, seed + 2, shift)
    val blocks = moments.map(Modulation.solveBlock(_, sketch0, p))
    val answer = summarize(blocks) - shift

    IslaResult(answer, pre.sketch0, pre.sigma, rate, m, shift, blocks)
  }

  /** Summarization module (§II-C): Σ avg_j·|Bⱼ| / M. */
  def summarize(blocks: Seq[BlockResult]): Double = {
    val m = blocks.map(_.blockSize).sum
    require(m > 0, "no data behind the partial answers")
    blocks.map(b => b.avg * b.blockSize).sum / m
  }
}
