package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.EdgeStream

/** Shared, lazily-built test graphs so suites don't regenerate them.
  * All derive from [[WebGraphs.Tiny]]/[[WebGraphs.TinySocial]] (~30k
  * edges, 2k vertices) — big enough for power-law/locality structure,
  * small enough for sub-second partitioner runs.
  */
object TestGraphs {
  private var tinyCache: EdgeStream = _
  private var socialCache: EdgeStream = _

  def tiny(spark: SparkSession): EdgeStream = synchronized {
    if (tinyCache == null) tinyCache = EdgeStream.fromDF(WebGraphs.Tiny.df(spark))
    tinyCache
  }

  def tinySocial(spark: SparkSession): EdgeStream = synchronized {
    if (socialCache == null) socialCache = EdgeStream.fromDF(WebGraphs.TinySocial.df(spark))
    socialCache
  }

  /** The stream as a DataFrame `(id, src, dst)` in stream order, for
    * DataFrame-side metric computations and the DuckDB oracle. */
  def toDF(spark: SparkSession, s: EdgeStream): DataFrame = {
    import spark.implicits._
    s.src.indices.map(i => (i.toLong, s.src(i).toLong, s.dst(i).toLong))
      .toDF("id", "src", "dst")
  }

  /** Order-sensitive 64-bit hash of a stream's `(src, dst)` columns, the
    * dataset fingerprint the benchmark records. */
  def streamHash(s: EdgeStream): Long = columnsHash(Seq(s.src.map(_.toLong), s.dst.map(_.toLong)))

  /** Order-sensitive 64-bit hash of long columns (splitmix64 finalizer per
    * element, chained). */
  def columnsHash(columns: Seq[Array[Long]]): Long = {
    var h = 0x9E3779B97F4A7C15L
    columns.foreach { a =>
      var i = 0
      while (i < a.length) {
        var z = h ^ (a(i) + 0x9E3779B97F4A7C15L)
        z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
        z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
        h = (z ^ (z >>> 31)) + i
        i += 1
      }
      h = h * 31 + a.length
    }
    h
  }

  /** Build a stream from (src, dst) pairs already in stream order,
    * remapping arbitrary long ids to dense 0-based ints by first
    * appearance.
    *
    * @throws IllegalArgumentException if there are more than
    *         `LongIndex.MaxKeys` (2²⁹) vertices
    */
  def fromPairs(pairs: Seq[(Long, Long)]): EdgeStream = {
    val n = pairs.length
    val src = new Array[Long](n); val dst = new Array[Long](n)
    var i = 0
    pairs.foreach { case (u, v) => src(i) = u; dst(i) = v; i += 1 }
    EdgeStream.relabel(src, dst)
  }

  /** A tiny deterministic hand-stream for exact-value tests. */
  def handStream: EdgeStream = fromPairs(Seq(
    (1L, 2L), (1L, 3L), (2L, 3L), (4L, 5L), (4L, 6L), (5L, 6L), (3L, 4L), (6L, 1L)
  ))
}
