package repro.core

import org.apache.spark.sql.{Column, DataFrame}
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

/** The Bernoulli sampler behind every Spark pass of ISLA and the baselines.
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
    * double) and `p` (the [[SamplingPass]]). A block without a pass fails
    * the Spark job with an error naming it.
    */
  def sample(df: DataFrame, valueCol: String, blockCol: String,
             passes: Map[Long, SamplingPass]): DataFrame = {
    val block = col(blockCol).cast("long")
    val byBlock = typedLit(passes)
    // byBlock(lit(AnyBlock)) folds to a struct literal, also passed by reference.
    val pass = coalesce(byBlock(block), byBlock(lit(AnyBlock)),
      raise_error(format_string("block %s has no sampling parameters: the block sizes omit it", block)))
    df.select(block.as("block"), col(valueCol).cast("double").as("x"), pass.as("p"),
        uniform(pass("salt"), monotonically_increasing_id()).as("u"))
      .where(col("u") < col("p.rate"))
      .select(col("block"), (col("x") + col("p.shift")).as("v"), col("p"))
  }
}
