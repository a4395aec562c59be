package repro.gas

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Metrics, MetricsDF}

/** Builds the master/mirror topology from an edge→partition assignment. */
object VertexCutGraph {

  /** [[GasTopology.of]] the quality counted by the DataFrame metrics.
    * @param assigned DataFrame `(id, src, dst, part)` */
  def topology(assigned: DataFrame, k: Int): GasTopology = {
    val counts = MetricsDF.replicationFactorDF(assigned).collect()(0)
    val replicas = if (counts.isNullAt(2)) 0L else counts.getLong(2)
    val sizes = new Array[Long](k)
    for (r <- MetricsDF.partitionSizesDF(assigned).collect()) sizes(r.getInt(0)) = r.getLong(1)
    GasTopology.of(Metrics.quality(sizes, counts.getLong(1), replicas))
  }

  /** The replica table `(v, part, isMaster)`; PowerGraph designates the
    * lowest-numbered holding partition as the master. */
  def replicaTable(spark: SparkSession, assigned: DataFrame): DataFrame = {
    val reps = MetricsDF.replicaSet(assigned)
    val masters = reps.groupBy("v").agg(min("part") as "masterPart")
    reps.join(masters, "v")
      .select(col("v"), col("part"), (col("part") === col("masterPart")) as "isMaster")
  }
}
