package repro.gas

import repro.core.PartitionQuality

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
