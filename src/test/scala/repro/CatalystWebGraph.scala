package repro

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The reference for [[SynthData.webGraph]]: the same generator as a
  * Catalyst plan over `spark.range(nEdges)`, with seven `rand` columns and
  * a `groupBy/min(id)` dedup. Its output depends on how many partitions
  * `spark.range` gets (`spark.sql.leafNodeDefaultParallelism`), because
  * `rand(seed)` is seeded once per partition; at 16 partitions it yields
  * exactly the rows of [[SynthData.webGraph]].
  */
object CatalystWebGraph {

  /** Bounded-Zipf rank draw as a Catalyst expression: a rank in `[1, n]`
    * with pmf ∝ `r^(-q)` (q ≠ 1), via the inverse CDF
    * `r = (1 + u·(n^(1−q) − 1))^(1/(1−q))`. */
  private def zipfRank(n: Long, q: Double, u: Column) = {
    val a = math.pow(n.toDouble, 1.0 - q) - 1.0
    least(lit(n), greatest(lit(1L),
      pow(u * a + 1.0, 1.0 / (1.0 - q)).cast(LongType)))
  }

  /** Columns `src, dst, id`, with the arguments of [[SynthData.webGraph]]. */
  def webGraph(spark: SparkSession, nVertices: Long, nEdges: Long,
               hostSize: Long = 40, pIntra: Double = 0.75, pNear: Double = 0.21,
               hostOffsetScale: Double = 3.0,
               qOut: Double = 0.25, qIn: Double = 0.5, qIntra: Double = 0.3,
               seed: Long = 42): DataFrame = {
    val nV = nVertices
    val nHosts = (nV + hostSize - 1) / hostSize
    val srcCol = zipfRank(nV, qOut, rand(seed))
    val hubCol = zipfRank(nV, qIn, rand(seed + 1))
    // signed exponential host offset for neighbor-host links
    val offMag = ceil(-log(rand(seed + 4) + lit(1e-12)) * hostOffsetScale).cast(LongType)
    val off    = when(rand(seed + 5) < 0.5, -offMag).otherwise(offMag)
    spark.range(nEdges)
      .select(col("id"), srcCol as "src", hubCol as "hub",
              zipfRank(hostSize, qIntra, rand(seed + 2)) as "slot",
              zipfRank(hostSize, qIntra, rand(seed + 6)) as "slot2",
              off as "hoff",
              rand(seed + 3) as "mix")
      .select(col("id"), col("src"), col("hub"), col("slot"), col("slot2"), col("mix"),
              // neighbor host id, clamped into range
              least(lit(nHosts - 1), greatest(lit(0L),
                floor((col("src") - 1) / hostSize) + col("hoff"))) as "nearHost")
      .select(
        col("src"),
        when(col("mix") < pIntra,
             // intra-host: a zipf slot within the source's host block
             least(lit(nV), ((col("src") - 1) - pmod(col("src") - 1, lit(hostSize))) + col("slot")))
          .when(col("mix") < pIntra + pNear,
             // neighbor host: zipf slot within a nearby host block
             least(lit(nV), col("nearHost") * hostSize + col("slot2")))
          .otherwise(col("hub")) as "dst",
        col("id"))
      .where(col("src") =!= col("dst"))
      .groupBy(col("src"), col("dst")).agg(min(col("id")) as "id") // dedup, keep first
  }

  /** [[webGraph]] for a dataset spec. */
  def of(spark: SparkSession, spec: WebGraphs.GraphSpec): DataFrame =
    webGraph(spark, spec.nV, spec.nE, hostSize = spec.hostSize,
             pIntra = spec.pIntra, pNear = spec.pNear, qIn = spec.qIn, seed = spec.seed)
}
