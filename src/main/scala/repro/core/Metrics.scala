package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}

/** Partition-quality metrics of paper §II-B.
  *
  * @param replicationFactor `1/|V| Σ_v |P(v)|` — average number of
  *        partitions holding each vertex (1.0 = no replicas)
  * @param relativeBalance `k·max|p_i| / |E|` (1.0 = perfectly balanced)
  * @param partitionSizes  edges per partition
  * @param numReplicas     Σ_v (|P(v)| − 1) — mirror count, the per-iteration
  *        synchronization message unit of the GAS engine
  */
final case class PartitionQuality(
    replicationFactor: Double,
    relativeBalance: Double,
    partitionSizes: Array[Long],
    numReplicas: Long) {
  override def toString: String =
    f"PartitionQuality(rf=$replicationFactor%.4f, balance=$relativeBalance%.4f, " +
      s"mirrors=$numReplicas, k=${partitionSizes.length})"
}

/** Metric computations over an edge→partition assignment. */
object Metrics {

  /** Driver-side evaluation of an assignment (partition id per edge). */
  def evaluate(stream: EdgeStream, part: Array[Int], k: Int): PartitionQuality = {
    require(part.length == stream.numEdges, "assignment length != |E|")
    val nV = stream.numVertices
    // per-vertex partition sets as bitsets: k ≤ 64 → one Long, else words
    val words = (k + 63) / 64
    val bits = new Array[Long](nV * words)
    val sizes = new Array[Long](k)
    @inline def mark(v: Int, p: Int): Unit = {
      bits(v * words + (p >> 6)) |= (1L << (p & 63))
    }
    var i = 0
    while (i < part.length) {
      val p = part(i)
      require(p >= 0 && p < k, s"edge $i assigned to invalid partition $p")
      mark(stream.src(i), p); mark(stream.dst(i), p)
      sizes(p) += 1
      i += 1
    }
    var seen = 0L; var replicas = 0L
    var v = 0
    while (v < nV) {
      var cnt = 0; var w = 0
      while (w < words) { cnt += java.lang.Long.bitCount(bits(v * words + w)); w += 1 }
      if (cnt > 0) { seen += 1; replicas += cnt }
      v += 1
    }
    val rf  = if (seen == 0) 0.0 else replicas.toDouble / seen
    val bal = if (stream.numEdges == 0) 1.0 else k.toDouble * sizes.max / stream.numEdges
    PartitionQuality(rf, bal, sizes, replicas - seen)
  }

  /** DataFrame `(id, src, dst, part)` from a stream + assignment, the
    * input of the GAS engine and of the SQL-side metrics below. Rows are in
    * edge order; each of `defaultParallelism` slices ships one contiguous
    * range of the primitive arrays and builds its rows in the task. */
  def assignmentDF(spark: SparkSession, stream: EdgeStream, part: Array[Int]): DataFrame = {
    require(part.length == stream.numEdges,
      s"assignment length ${part.length} != |E| ${stream.numEdges}")
    val n = stream.numEdges.toLong
    val slices = spark.sparkContext.defaultParallelism
    val ranges = (0 until slices).map { c =>
      val (lo, hi) = ((n * c / slices).toInt, (n * (c + 1) / slices).toInt)
      (lo, stream.src.slice(lo, hi), stream.dst.slice(lo, hi), part.slice(lo, hi))
    }
    val rows = spark.sparkContext.parallelize(ranges, slices).flatMap { case (lo, s, d, p) =>
      s.indices.iterator.map(i => Row((lo + i).toLong, s(i).toLong, d(i).toLong, p(i)))
    }
    spark.createDataFrame(rows, AssignmentSchema)
  }

  private val AssignmentSchema = StructType(Seq(
    StructField("id", LongType, nullable = false),
    StructField("src", LongType, nullable = false),
    StructField("dst", LongType, nullable = false),
    StructField("part", IntegerType, nullable = false)))

  /** Replication factor computed with the DataFrame API (Catalyst path);
    * cross-checked against DuckDB in the test suite. One row:
    * `(rf double, vertices long, replicas long)`. */
  def replicationFactorDF(assigned: DataFrame): DataFrame = {
    val verts = assigned.select(col("src") as "v", col("part"))
      .union(assigned.select(col("dst") as "v", col("part")))
      .distinct()
    verts.groupBy(col("v")).agg(countDistinct(col("part")) as "np")
      .agg(avg(col("np")) as "rf",
           count(lit(1)) as "vertices",
           sum(col("np")) as "replicas")
  }

  /** Per-partition edge counts via the DataFrame API:
    * `(part, edges)` sorted by partition. */
  def partitionSizesDF(assigned: DataFrame): DataFrame =
    assigned.groupBy(col("part")).agg(count(lit(1)) as "edges").orderBy(col("part"))
}
