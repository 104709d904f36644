package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.data.Distributions

/** One benchmark workload: its blocked input and the ISLA query issued on it.
  *
  * @param rows        data size M
  * @param blocks      block count b
  * @param generate    (session, data seed) → input with `value` and `block`
  * @param precision   exact AVG → the query's precision e
  * @param sizesGiven  pass block sizes as metadata (else every query counts them)
  * @param nonIid      run `IslaNonIid.run` instead of `Isla.run`
  * @param minQueries  queries every timed run makes at least; the accuracy
  *                    metrics and `jobs_per_query` are taken over exactly
  *                    these, so they repeat for one seed
  * @param usPerQuery  uniform-sampling queries after each ISLA query
  */
final case class Workload(
    name: String,
    rows: Long,
    blocks: Int,
    generate: (SparkSession, Long) => DataFrame,
    precision: Double => Double,
    sizesGiven: Boolean,
    nonIid: Boolean,
    minQueries: Int,
    usPerQuery: Int,
)

object Workloads {
  val names: Seq[String] = Seq("iid_normal", "skew_large", "noniid_b200")

  /** The workload `name` at full size, or at its smoke size, which runs the
    * same code paths in seconds.
    */
  def apply(name: String, smoke: Boolean): Workload = name match {
    case "iid_normal" =>
      // The paper's default query (Table III): N(100, 20²), b=10, e=0.1.
      val m = if (smoke) 100000L else 1000000L
      Workload(name, m, 10, (s, seed) => Distributions.normal(s, m, 100.0, 20.0, 10, seed),
        _ => 0.1, sizesGiven = true, nonIid = false,
        minQueries = if (smoke) 3 else 12, usPerQuery = 1)
    case "skew_large" =>
      // §VIII-G's bimodal lognormal at a size where each query is bound by
      // its scans; no size metadata, so every query counts the blocks.
      val m = if (smoke) 300000L else 10000000L
      Workload(name, m, 10, (s, seed) => Distributions.tlcLike(s, m, 10, seed),
        exact => 0.05 * exact, sizesGiven = false, nonIid = false,
        minQueries = if (smoke) 3 else 8, usPerQuery = 1)
    case "noniid_b200" =>
      // §VIII-D's five block distributions cycled over 200 blocks. The
      // 200-branch CASE WHEN chains cost mostly per query, not per row, so
      // 1000 rows a block keep the cliff at a quarter of 5000's run time.
      val perBlock = if (smoke) 250L else 1000L
      val specs = Seq.tabulate(200)(j => Distributions.nonIidSpecs(j % Distributions.nonIidSpecs.size))
      Workload(name, perBlock * specs.size, specs.size,
        (s, seed) => Distributions.nonIidBlocks(s, perBlock, specs, seed),
        _ => 0.5, sizesGiven = true, nonIid = true,
        minQueries = if (smoke) 2 else 3, usPerQuery = 3)
    case other =>
      throw new IllegalArgumentException(s"unknown workload '$other'; one of ${names.mkString(", ")}")
  }
}
