package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Running moments of one region's samples — the whole per-region state of
  * Algorithm 1: `param = {counter, sum, squareSum, cubeSum}`.
  *
  * Supports the online extension (§VII-A): a later round of sampling is
  * folded in with [[merge]] without revisiting earlier samples.
  */
final case class RegionMoments(n: Long, sum: Double, sum2: Double, sum3: Double) {
  /** Fold one sample in (`updateParams` of Algorithm 1). */
  def add(a: Double): RegionMoments =
    RegionMoments(n + 1, sum + a, sum2 + a * a, sum3 + a * a * a)

  /** Combine with another round's moments (online mode, §VII-A). */
  def merge(o: RegionMoments): RegionMoments =
    RegionMoments(n + o.n, sum + o.sum, sum2 + o.sum2, sum3 + o.sum3)
}

object RegionMoments {
  /** The all-zero state Algorithm 1 initializes with. */
  val empty: RegionMoments = RegionMoments(0L, 0.0, 0.0, 0.0)

  /** Moments of an explicit sample list (tests / worked examples). */
  def of(as: Seq[Double]): RegionMoments = as.foldLeft(empty)(_.add(_))
}

/** Per-block output of the sampling phase: block size plus S and L moments. */
final case class BlockMoments(block: Long, blockSize: Long, s: RegionMoments, l: RegionMoments)

/** Algorithm 1 (sampling phase) as a single Spark job.
  *
  * Samples are drawn per block by the Bernoulli [[Sampler]] at rate r
  * (the distributed equivalent of drawing `m = r·|Bⱼ|` uniform samples),
  * classified by the [[Boundaries]], and folded into the S/L moments
  * inside the scan ([[Sampler.fold]]) — no sample is ever materialized,
  * matching the paper's "drop a" (Algorithm 1, line 12).
  */
object Moments {

  /** Exact block sizes `|Bⱼ|`: each block's non-null values, which SQL
    * `AVG` weighs (the paper reads these from metadata; one count pass
    * stands in for the metadata lookup). It stays a grouped SQL count: a
    * fold over every row of the input costs more than Spark's aggregate.
    */
  def blockSizes(df: DataFrame, blockCol: String = "block", valueCol: String = "value"): Map[Long, Long] =
    df.groupBy(col(blockCol).cast("long")).agg(count(col(valueCol)))
      .collect()
      .map { r =>
        require(!r.isNullAt(0), s"null block id in column '$blockCol'")
        r.getLong(0) -> r.getLong(1)
      }
      .toMap

  /** Run the sampling phase over every block in one Spark job, with the
    * same rate and boundaries in every block.
    *
    * @param df       input data with a value column and a block-id column
    * @param valueCol name of the (numeric) aggregation column
    * @param rate     per-block Bernoulli sampling rate r
    * @param bounds   data boundaries fixing the S and L regions (over shifted values)
    * @param sizes    block sizes |Bⱼ| (from [[blockSizes]] or metadata); a
    *                 block of `df` missing from them fails the pass
    * @param seed     salt of the Bernoulli draw
    * @param shift    added to every value before it is classified (footnote 1)
    * @return per-block S/L moments, ordered by block id
    */
  def collect(
      df: DataFrame,
      valueCol: String,
      rate: Double,
      bounds: Boundaries,
      sizes: Map[Long, Long],
      blockCol: String = "block",
      seed: Long = 42L,
      shift: Double = 0.0,
  ): Seq[BlockMoments] = {
    require(rate > 0 && rate <= 1, s"sampling rate must be in (0,1]: $rate")
    val pass = SamplingPass(seed, rate, bounds, shift)
    collect(df, valueCol, sizes.map { case (b, _) => b -> pass }, sizes, blockCol)
  }

  /** Run the sampling phase with each block's own [[SamplingPass]]. */
  def collect(
      df: DataFrame,
      valueCol: String,
      passes: Map[Long, SamplingPass],
      sizes: Map[Long, Long],
      blockCol: String,
  ): Seq[BlockMoments] = {
    val (v, pass) = (col("v"), col("p"))
    val (inS, inL) = (Boundaries.isSCol(v, pass), Boundaries.isLCol(v, pass))
    // Algorithm 1's param per region — n, Σa, Σa², Σa³ — in slot 0 (S) or 1 (L);
    // samples outside S∪L are dropped before they leave Spark's generated code.
    val byKey = Sampler.merge(Sampler.fold(
      Sampler.sample(df, valueCol, blockCol, passes).where(inS || inL), slot = when(inS, 0).otherwise(1)).collect())
    // Blocks whose entire sample missed S∪L (or yielded no sample at all)
    // still exist and must appear with empty moments.
    val region = (b: Long, slot: Int) => byKey.get((b, slot)).fold(RegionMoments.empty)(_.region)
    sizes.keys.toSeq.sorted.map(b => BlockMoments(b, sizes(b), region(b, 0), region(b, 1)))
  }

  /** Driver-side reference implementation of Algorithm 1 over explicit
    * samples — used by tests to pin the Spark fold's semantics.
    */
  def fromSamples(samples: Seq[Double], bounds: Boundaries): (RegionMoments, RegionMoments) =
    samples.foldLeft((RegionMoments.empty, RegionMoments.empty)) { case ((s, l), a) =>
      if (bounds.isS(a)) (s.add(a), l)
      else if (bounds.isL(a)) (s, l.add(a))
      else (s, l) // "Drop a" — TS, N, TL samples leave no trace
    }
}
