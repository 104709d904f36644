package repro.core

import scala.collection.immutable.SortedMap
import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._

/** A sampling pass's parameters in one block: draw salt, Bernoulli rate,
  * data boundaries (§IV-A1, if it classifies) and footnote-1 value shift.
  */
final case class SamplingPass(salt: Long, rate: Double, lo2: Double = 0.0, lo1: Double = 0.0,
                              hi1: Double = 0.0, hi2: Double = 0.0, shift: Double = 0.0)

object SamplingPass {
  def apply(salt: Long, rate: Double, bounds: Boundaries, shift: Double): SamplingPass =
    SamplingPass(salt, rate, bounds.lo2, bounds.lo1, bounds.hi1, bounds.hi2, shift)
}

/** Moments of the sampled values under one key, (block, slot): Algorithm 1's
  * {n, Σa, Σa², Σa³} and their minimum, plus Welford's running mean and
  * M₂ = Σ(a − mean)² (as `stddev_samp` keeps them), so σ needs no raw Σa².
  * The running mean is kept relative to a pivot, the key's first value in
  * its partition: values near the pivot subtract from it exactly, so a
  * large common offset does not round σ.
  */
final case class SlotMoments(block: Long, slot: Int, region: RegionMoments, min: Double,
                             pivot: Double, runMean: Double, m2: Double) {

  /** Fold one value in (Welford's update). */
  def add(a: Double): SlotMoments = {
    val delta = (a - pivot) - runMean
    val deltaN = delta / (region.n + 1)
    SlotMoments(block, slot, region.add(a), math.min(min, a), pivot, runMean + deltaN, m2 + delta * (delta - deltaN))
  }

  /** Combine with another partition's moments of the same key (Chan et al.). */
  def merge(o: SlotMoments): SlotMoments = {
    val delta = (o.pivot - pivot) + (o.runMean - runMean)
    val deltaN = delta / (region.n + o.region.n)
    SlotMoments(block, slot, region.merge(o.region), math.min(min, o.min), pivot,
      runMean + deltaN * o.region.n, m2 + o.m2 + delta * deltaN * region.n * o.region.n)
  }

  def n: Long = region.n

  /** Sample mean, Σa / n, as SQL `AVG` computes it. */
  def mean: Double = region.sum / region.n

  /** Sample standard deviation; 0 below two values (where `stddev_samp` is null). */
  def stddev: Double = if (region.n < 2) 0.0 else math.sqrt(m2 / (region.n - 1))
}

/** The Bernoulli sampler behind every Spark pass of ISLA and the baselines,
  * and the fold that reduces a pass's sample to moments.
  *
  * Spark inlines scalar literals into its generated code but passes a map
  * literal by reference, so a pass reads its parameters from a block-keyed
  * map literal and hashes its salt with the row id (`rand` cannot take a
  * seed that is data): queries then share generated code (DESIGN.md §5).
  * Like `rand`, the draw depends on the partition layout; distinct salts
  * draw independent samples, as §III needs.
  */
object Sampler {

  /** Key of the pass that applies to every block without an entry of its own. */
  val AnyBlock: Long = Long.MinValue

  /** The same pass in every block. */
  def everyBlock(pass: SamplingPass): Map[Long, SamplingPass] = Map(AnyBlock -> pass)

  /** Uniform draw in [0,1): the top 53 bits of a hash of salt and row id. */
  def uniform(salt: Column, rowId: Column): Column =
    shiftrightunsigned(xxhash64(salt, rowId), 11).cast("double") * lit(1.0 / (1L << 53))

  /** Rows of `df` that `passes` keep, as `block` (long), `v` (value + shift,
    * double) and `p` (the [[SamplingPass]]). Null values are dropped, as SQL
    * aggregates skip them. Every row of `df`, kept or not, is checked first:
    * a null block id or a NaN/±∞ value fails the Spark job with an error
    * naming its column, and so does a block without a pass.
    */
  def sample(df: DataFrame, valueCol: String, blockCol: String,
             passes: Map[Long, SamplingPass]): DataFrame = {
    val block = col(blockCol).cast("long")
    val x = col(valueCol).cast("double")
    val checked = when(block.isNull, raise_error(lit(s"null block id in column '$blockCol'")))
      .when(isnan(x) || abs(x) === Double.PositiveInfinity,
        raise_error(format_string(s"non-finite value %s in column '$valueCol'", x)))
      .otherwise(lit(true))
    val byBlock = typedLit(passes)
    // byBlock(lit(AnyBlock)) folds to a struct literal, also passed by reference.
    val pass = coalesce(byBlock(block), byBlock(lit(AnyBlock)),
      raise_error(format_string("block %s has no sampling parameters: the block sizes omit it", block)))
    df.where(checked)
      .select(block.as("block"), x.as("x"), pass.as("p"), uniform(pass("salt"), monotonically_increasing_id()).as("u"))
      .where(col("u") < col("p.rate") && col("x").isNotNull)
      .select(col("block"), (col("x") + col("p.shift")).as("v"), col("p"))
  }

  /** A sample from [[sample]] folded to [[SlotMoments]] per (`key`, `slot`)
    * inside each partition's scan: one Spark job, no shuffle. Lazy, so the
    * phase that needs the moments runs the action; [[merge]] what it collects.
    * The fold reads Spark's internal rows and the job returns its moments as
    * plain task results: collecting a Dataset would buffer each partition's
    * rows in a 1 MB array of its own (a G1 humongous allocation), and with
    * one result task per input partition those arrays set off G1 collection
    * cycles in the middle of queries.
    */
  def fold(sampled: DataFrame, key: Column = col("block"), slot: Column = lit(0)): RDD[SlotMoments] =
    sampled.select(key.cast("long"), slot.cast("int"), col("v")).queryExecution.toRdd.mapPartitions(foldPartition)

  private def foldPartition(rows: Iterator[InternalRow]): Iterator[SlotMoments] = {
    val acc = mutable.HashMap.empty[(Long, Int), SlotMoments]
    rows.foreach { r =>
      val key = (r.getLong(0), r.getInt(1))
      val a = r.getDouble(2)
      acc(key) = acc.getOrElse(key, SlotMoments(key._1, key._2, RegionMoments.empty, a, a, 0.0, 0.0)).add(a)
    }
    acc.toSeq.sortBy(_._1).iterator.map(_._2)
  }

  /** Merge a fold's collected partials per key in the order given, partition
    * by partition, so the same sample gives bit-identical moments.
    */
  def merge(parts: Array[SlotMoments]): SortedMap[(Long, Int), SlotMoments] =
    parts.foldLeft(SortedMap.empty[(Long, Int), SlotMoments]) { (acc, m) =>
      acc.updated((m.block, m.slot), acc.get((m.block, m.slot)).fold(m)(_.merge(m)))
    }
}
