package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestGraphs}

class EdgeStreamSpec extends SparkSpec {

  test("fromPairs remaps ids densely by first appearance") {
    val s = TestGraphs.fromPairs(Seq((10L, 20L), (20L, 30L), (10L, 30L)))
    assert(s.numVertices == 3)
    assert(s.src.toSeq == Seq(0, 1, 0))
    assert(s.dst.toSeq == Seq(1, 2, 2))
  }

  test("fromPairs keeps stream order") {
    val s = TestGraphs.fromPairs(Seq((5L, 6L), (1L, 2L), (5L, 2L)))
    assert(s.numEdges == 3)
    // first edge is (5,6) -> densified (0,1)
    assert(s.src(0) == 0 && s.dst(0) == 1)
  }

  test("fromPairs labels extreme ids by first appearance") {
    val top = 1L << 32
    val s = TestGraphs.fromPairs(Seq((Long.MinValue, Long.MaxValue), (-1L, Long.MinValue),
      (top, 1L), (1L, -1L), (0L, top | 1L), (Long.MaxValue, top)))
    assert(s.numVertices == 7)
    assert(s.src.toSeq == Seq(0, 2, 3, 4, 5, 1))
    assert(s.dst.toSeq == Seq(1, 0, 4, 2, 6, 3))
  }

  test("degrees counts both endpoints") {
    val s = TestGraphs.handStream
    assert(s.degrees.sum == 2 * s.numEdges)
    // vertex '1' (dense 0) has edges (1,2),(1,3),(6,1) -> degree 3
    assert(s.degrees(0) == 3)
  }

  test("shuffled preserves the edge multiset") {
    val s = TestGraphs.tiny(spark)
    val sh = s.shuffled(123)
    assert(sh.numEdges == s.numEdges && sh.numVertices == s.numVertices)
    def ms(x: EdgeStream) =
      x.src.indices.map(i => (x.src(i), x.dst(i))).groupBy(identity).view.mapValues(_.size).toMap
    assert(ms(sh) == ms(s))
  }

  test("shuffled is deterministic in the seed and changes the order") {
    val s = TestGraphs.tiny(spark)
    val a = s.shuffled(7); val b = s.shuffled(7); val c = s.shuffled(8)
    assert(a.src.toSeq == b.src.toSeq && a.dst.toSeq == b.dst.toSeq)
    assert(a.src.toSeq != c.src.toSeq || a.dst.toSeq != c.dst.toSeq)
    assert(a.src.toSeq != s.src.toSeq || a.dst.toSeq != s.dst.toSeq)
  }

  test("take returns a prefix") {
    val s = TestGraphs.tiny(spark)
    val t = s.take(100)
    assert(t.numEdges == 100)
    assert(t.src.toSeq == s.src.take(100).toSeq)
  }

  test("fromDF sorts by (src, id) — BFS order") {
    import spark.implicits._
    val df = Seq((3L, 1L, 0L), (1L, 2L, 1L), (1L, 3L, 2L), (2L, 3L, 3L))
      .toDF("src", "dst", "id")
    val s = EdgeStream.fromDF(df)
    // sorted stream: (1,2),(1,3),(2,3),(3,1); dense ids: 1->0,2->1,3->2
    assert(s.src.toSeq == Seq(0, 0, 1, 2))
    assert(s.dst.toSeq == Seq(1, 2, 2, 0))
  }

  test("fromDF of general input equals a stable sort by (src, id) and a first-appearance relabel") {
    import org.apache.spark.sql.functions.spark_partition_id
    import spark.implicits._
    val rnd = new scala.util.Random(11)
    val pool = Array(Long.MinValue, -(1L << 40), -3L, 0L, 2L, 9L, (1L << 32) + 5, 1L << 50, Long.MaxValue)
    def draw() = pool(rnd.nextInt(pool.length))
    val rows = Seq.tabulate(3000)(i => (draw(), draw() ^ i, rnd.nextInt(40).toLong - 20))
    val df = rows.toDF("src", "dst", "id").repartition(5).cache()
    try {
      val held = df.select($"src", $"dst", $"id", spark_partition_id() as "p").collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getInt(3))).toSeq
      // the input is general: ids out of order within a partition, and
      // equal (src, id) keys in more than one partition
      assert(held.groupBy(_._4).values.exists(p => p.map(_._3).toSeq != p.map(_._3).sorted.toSeq))
      assert(held.groupBy(r => (r._1, r._3)).values.exists(_.map(_._4).distinct.length > 1))

      assertStableSortAndRelabel(df, held)
    } finally df.unpersist()
  }

  /** Asserts `fromDF(df)` is the stable sort of `held` (`src, dst, id,
    * partition` in read order) by `(src, id)`, ties in partition order,
    * relabelled by first appearance. */
  private def assertStableSortAndRelabel(df: DataFrame, held: Seq[(Long, Long, Long, Int)]): Unit = {
    val sorted = held.sortBy(r => (r._1, r._3)) // stable: ties in partition order
    val label = scala.collection.mutable.HashMap.empty[Long, Int]
    def relabel(v: Long) = label.getOrElseUpdate(v, label.size)
    val want = sorted.map(r => { val u = relabel(r._1); (u, relabel(r._2)) })
    val s = EdgeStream.fromDF(df)
    assert(s.numVertices == label.size)
    assert(s.src.toSeq == want.map(_._1))
    assert(s.dst.toSeq == want.map(_._2))
  }

  test("fromDF of partitions whose ids never decrease equals the stable (src, id) sort") {
    import spark.implicits._
    val rnd = new scala.util.Random(5)
    val pool = Array(Long.MinValue, -7L, 0L, 3L, 1L << 40, Long.MaxValue)
    // five partitions of ascending ids with repeats, over one small id range,
    // so equal (src, id) keys sit in more than one partition
    val ascending = Seq.tabulate(5)(p => Seq.fill(400)(rnd.nextInt(60).toLong).sorted
      .map(id => (pool(rnd.nextInt(pool.length)), rnd.nextLong(), id)))
    // its destinations are labelled before it, so a swap would show
    val descending = Seq((3L, -7L, 9L), (3L, 0L, 8L), (0L, 5L, 9L))
    for ((parts, idsAscend) <- Seq(ascending -> true, (ascending :+ descending) -> false)) {
      val held = parts.zipWithIndex.flatMap { case (rows, p) => rows.map(r => (r._1, r._2, r._3, p)) }
      val df = spark.sparkContext.parallelize(parts.indices, parts.length).flatMap(parts(_)).toDF("src", "dst", "id")
      assert(df.rdd.getNumPartitions == parts.length)
      assert(parts.forall(rows => rows.map(_._3) == rows.map(_._3).sorted) == idsAscend)
      assert(parts.exists(rows => rows.map(_._3).distinct.length < rows.length), "ids repeat in a partition")
      assert(held.groupBy(r => (r._1, r._3)).values.exists(_.map(_._4).distinct.length > 1),
        "equal (src, id) keys in more than one partition")
      assertStableSortAndRelabel(df, held)
    }
  }

  test("fromDF rejects a null src, dst or id") {
    import spark.implicits._
    for ((column, c) <- Seq("src", "dst", "id").zipWithIndex) {
      val row = Array[Option[Long]](Some(1L), Some(2L), Some(1L))
      row(c) = None
      val df = Seq((Option(1L), Option(3L), Option(0L)), (row(0), row(1), row(2)))
        .toDF("src", "dst", "id")
      val e = intercept[IllegalArgumentException](EdgeStream.fromDF(df))
      assert(e.getMessage.contains(column), e.getMessage)
    }
  }

  test("fromDF of an empty DataFrame is an empty stream") {
    import spark.implicits._
    for (df <- Seq(Seq.empty[(Long, Long, Long)].toDF("src", "dst", "id"),
                   repro.SynthData.webGraph(spark, 10, 0))) {
      val s = EdgeStream.fromDF(df)
      assert(s.numEdges == 0 && s.numVertices == 0)
    }
  }

  test("edge and vertex counts past Int.MaxValue are rejected") {
    assert(EdgeStream.intCount("vertices", Int.MaxValue) == Int.MaxValue)
    val e = intercept[IllegalArgumentException](EdgeStream.intCount("vertices", Int.MaxValue + 1L))
    assert(e.getMessage.contains("vertices"), e.getMessage)
  }

  test("toDF roundtrips the stream") {
    val s = TestGraphs.handStream
    val df = TestGraphs.toDF(spark, s)
    assert(df.count() == s.numEdges)
    val back = df.orderBy("id").collect()
    assert(back.map(_.getLong(1)).toSeq == s.src.map(_.toLong).toSeq)
    assert(back.map(_.getLong(2)).toSeq == s.dst.map(_.toLong).toSeq)
  }

  test("oracle: degree computation via DataFrame matches DuckDB") {
    import org.apache.spark.sql.functions._
    val s = TestGraphs.handStream
    val edges = TestGraphs.toDF(spark, s)
    val sparkDeg = edges.select(col("src") as "v")
      .union(edges.select(col("dst") as "v"))
      .groupBy("v").agg(count(lit(1)) as "degree")
    Oracle.assertEquivalent(sparkDeg,
      """SELECT v, COUNT(*) AS degree FROM (
        |  SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
        |) GROUP BY v""".stripMargin,
      "edges" -> edges)
  }

  test("oracle: per-source out-degree matches DuckDB") {
    import org.apache.spark.sql.functions._
    val s = TestGraphs.tiny(spark)
    val edges = TestGraphs.toDF(spark, s).limit(2000)
    val outDeg = edges.groupBy("src").agg(count(lit(1)) as "outdeg")
    Oracle.assertEquivalent(outDeg,
      "SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src",
      "edges" -> edges)
  }
}
