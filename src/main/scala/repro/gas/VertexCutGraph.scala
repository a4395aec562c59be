package repro.gas

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Metrics, PartitionQuality}

/** Master/mirror topology of a vertex-cut placement — what PowerGraph
  * materializes after loading a partitioned graph.
  *
  * @param k          number of partitions
  * @param masters    number of distinct vertices
  * @param replicas   Σ_v |P(v)| — rows of the replica table
  * @param mirrors    replicas − masters; one gather partial and one apply
  *                   sync cross the network per mirror per iteration
  * @param edgesPerPartition edges held by each partition (gather/scatter
  *                   work is proportional to this; the slowest partition
  *                   gates the bulk-synchronous iteration)
  */
final case class GasTopology(
    k: Int,
    masters: Long,
    replicas: Long,
    mirrors: Long,
    edgesPerPartition: Array[Long]) {
  /** Edges on the busiest partition — the per-iteration compute bound. */
  def maxEdges: Long = if (edgesPerPartition.isEmpty) 0 else edgesPerPartition.max
  /** Replication factor implied by the placement. */
  def replicationFactor: Double = if (masters == 0) 0 else replicas.toDouble / masters
  /** Messages per bulk-synchronous iteration: each mirror sends its
    * gather partial to the master and receives the applied value back. */
  def messagesPerIteration: Long = 2L * mirrors
}

object GasTopology {
  /** The topology a placement summary implies: one master per vertex with
    * an edge, one replica per (vertex, holding partition), the rest mirrors. */
  def of(q: PartitionQuality): GasTopology =
    GasTopology(q.partitionSizes.length, q.vertices, q.vertices + q.numReplicas,
      q.numReplicas, q.partitionSizes)
}

/** Builds the master/mirror topology from an edge→partition assignment. */
object VertexCutGraph {

  /** [[GasTopology.of]] the quality counted by the DataFrame metrics.
    * @param assigned DataFrame `(id, src, dst, part)` */
  def topology(assigned: DataFrame, k: Int): GasTopology = {
    val counts = Metrics.replicationFactorDF(assigned).collect()(0)
    val replicas = if (counts.isNullAt(2)) 0L else counts.getLong(2)
    val sizes = new Array[Long](k)
    for (r <- Metrics.partitionSizesDF(assigned).collect()) sizes(r.getInt(0)) = r.getLong(1)
    GasTopology.of(Metrics.quality(sizes, counts.getLong(1), replicas))
  }

  /** The replica table `(v, part, isMaster)`; PowerGraph designates the
    * lowest-numbered holding partition as the master. */
  def replicaTable(spark: SparkSession, assigned: DataFrame): DataFrame = {
    val reps = Metrics.replicaSet(assigned)
    val masters = reps.groupBy("v").agg(min("part") as "masterPart")
    reps.join(masters, "v")
      .select(col("v"), col("part"), (col("part") === col("masterPart")) as "isMaster")
  }
}
