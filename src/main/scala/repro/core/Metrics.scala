package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}
import repro.Blocks.writeColumns

/** Partition-quality metrics of paper §II-B, the one summary of a placement.
  *
  * @param replicationFactor `1/|V| Σ_v |P(v)|` — average number of
  *        partitions holding each vertex (1.0 = no replicas)
  * @param relativeBalance `k·max|p_i| / |E|` (1.0 = perfectly balanced)
  * @param partitionSizes  edges per partition
  * @param numReplicas     Σ_v (|P(v)| − 1) — mirror count, the per-iteration
  *        synchronization message unit of the GAS engine
  * @param vertices        vertices with at least one edge — the |V| of the
  *        replication factor, one master each
  */
final case class PartitionQuality(
    replicationFactor: Double,
    relativeBalance: Double,
    partitionSizes: Array[Long],
    numReplicas: Long,
    vertices: Long) {
  override def toString: String =
    f"PartitionQuality(rf=$replicationFactor%.4f, balance=$relativeBalance%.4f, " +
      s"mirrors=$numReplicas, vertices=$vertices, k=${partitionSizes.length})"
}

/** Per-vertex partition sets `A(v) ⊆ P`, one packed bitset of ⌈k/64⌉ words
  * per vertex: the replica table the Greedy and HDRF partitioners consult
  * per edge (the global state the paper's §I names as their bottleneck),
  * and [[Metrics.evaluate]]'s replica count. [[spaceBytes]] models the VGP
  * reference implementations the paper measured (a `HashSet<Integer>` per
  * vertex, ≈48 B per replica entry plus per-vertex overhead), where Fig. 6's
  * 8–10× heuristic-over-CLUGP gap comes from (DESIGN.md §3). */
private[repro] final class ReplicaTable(nV: Int, k: Int) {
  private val words = (k + 63) / 64
  require(nV.toLong * words <= Int.MaxValue - 8, // the longest array the JVM allocates
    s"replica table for |V| = $nV and k = $k needs ${nV.toLong * words} words, more than an array holds")
  private val bits = new Array[Long](nV * words)
  private var held = 0L

  @inline def contains(v: Int, p: Int): Boolean =
    (bits(v * words + (p >> 6)) & (1L << (p & 63))) != 0
  @inline def add(v: Int, p: Int): Unit = {
    val idx = v * words + (p >> 6); val m = 1L << (p & 63)
    if ((bits(idx) & m) == 0) { bits(idx) |= m; held += 1 }
  }
  @inline def isEmpty(v: Int): Boolean = {
    var w = 0
    while (w < words) { if (bits(v * words + w) != 0) return false; w += 1 }
    true
  }
  /** Σ_v |A(v)|, the replicas held. */
  def entries: Long = held
  /** Bytes of state of the VGP-style table — Fig. 6's space metric. */
  def spaceBytes: Long = 48L * held + 16L * nV
}

/** Metric computations over an edge→partition assignment. */
object Metrics {

  /** Driver-side evaluation of an assignment (partition id per edge). */
  def evaluate(stream: EdgeStream, part: Array[Int], k: Int): PartitionQuality = {
    require(part.length == stream.numEdges, "assignment length != |E|")
    val nV = stream.numVertices
    val held = new ReplicaTable(nV, k)
    val sizes = new Array[Long](k)
    var i = 0
    while (i < part.length) {
      val p = part(i)
      require(p >= 0 && p < k, s"edge $i assigned to invalid partition $p")
      held.add(stream.src(i), p); held.add(stream.dst(i), p)
      sizes(p) += 1
      i += 1
    }
    var seen = 0L
    var v = 0
    while (v < nV) { if (!held.isEmpty(v)) seen += 1; v += 1 }
    quality(sizes, seen, held.entries)
  }

  /** The quality of a placement with `sizes` edges per partition and
    * `vertices` vertices with an edge, holding `replicas` = Σ_v |P(v)|. */
  private[repro] def quality(sizes: Array[Long], vertices: Long, replicas: Long): PartitionQuality = {
    val edges = sizes.sum
    val rf  = if (vertices == 0) 0.0 else replicas.toDouble / vertices
    val bal = if (edges == 0) 1.0 else sizes.length.toDouble * sizes.max / edges
    PartitionQuality(rf, bal, sizes, replicas - vertices, vertices)
  }

  /** DataFrame `(id, src, dst, part)` from a stream + assignment, the
    * input of the GAS engine. Rows are in edge order; each of
    * `defaultParallelism` slices ships one contiguous range of the
    * primitive arrays, which `Blocks.writeColumns` writes as rows. */
  def assignmentDF(spark: SparkSession, stream: EdgeStream, part: Array[Int]): DataFrame = {
    require(part.length == stream.numEdges,
      s"assignment length ${part.length} != |E| ${stream.numEdges}")
    val n = stream.numEdges.toLong
    val slices = spark.sparkContext.defaultParallelism
    val ranges = (0 until slices).map { c =>
      val (lo, hi) = ((n * c / slices).toInt, (n * (c + 1) / slices).toInt)
      (lo, stream.src.slice(lo, hi), stream.dst.slice(lo, hi), part.slice(lo, hi))
    }
    val blocks = spark.sparkContext.parallelize(ranges, slices).map { case (lo, s, d, p) =>
      Seq(Array.range(lo, lo + s.length), s, d, p)
    }
    writeColumns(spark, blocks, AssignmentSchema)
  }

  private[core] val AssignmentSchema = StructType(Seq(
    StructField("id", LongType, nullable = false),
    StructField("src", LongType, nullable = false),
    StructField("dst", LongType, nullable = false),
    StructField("part", IntegerType, nullable = false)))
}
