package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The partition-quality metrics of [[Metrics]] over an assignment
  * DataFrame `(id, src, dst, part)` ([[Metrics.assignmentDF]]), computed
  * with the DataFrame API (Catalyst path): the reference the driver-side
  * [[Metrics.evaluate]] is checked against, itself cross-checked against
  * DuckDB through [[repro.Oracle]]. */
object MetricsDF {

  /** The replica set `(v, part)` of an assignment `(id, src, dst, part)`:
    * one row per vertex and partition holding one of its edges. */
  private[repro] def replicaSet(assigned: DataFrame): DataFrame =
    assigned.select(col("src") as "v", col("part"))
      .union(assigned.select(col("dst") as "v", col("part")))
      .distinct()

  /** Replication factor computed with the DataFrame API (Catalyst path);
    * cross-checked against DuckDB in the test suite. One row:
    * `(rf double, vertices long, replicas long)`; on an empty assignment
    * `rf` and `replicas` are null. */
  def replicationFactorDF(assigned: DataFrame): DataFrame =
    replicaSet(assigned).groupBy(col("v")).agg(count(lit(1)) as "np")
      .agg(avg(col("np")) as "rf",
           count(lit(1)) as "vertices",
           sum(col("np")) as "replicas")

  /** Per-partition edge counts via the DataFrame API:
    * `(part, edges)` sorted by partition. */
  def partitionSizesDF(assigned: DataFrame): DataFrame =
    assigned.groupBy(col("part")).agg(count(lit(1)) as "edges").orderBy(col("part"))
}
