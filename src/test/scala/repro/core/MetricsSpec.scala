package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

class MetricsSpec extends SparkSpec {

  test("replication factor on a hand example") {
    // edges (0,1),(0,2) split across partitions 0 and 1:
    // P(0)={0,1}, P(1)={0}, P(2)={1} -> rf = 4/3
    val s = TestGraphs.fromPairs(Seq((1L, 2L), (1L, 3L)))
    val q = Metrics.evaluate(s, Array(0, 1), 2)
    assert(math.abs(q.replicationFactor - 4.0 / 3.0) < 1e-12)
    assert(q.numReplicas == 1)
    assert(q.partitionSizes.toSeq == Seq(1L, 1L))
    assert(q.relativeBalance == 1.0)
  }

  test("rf = 1 when every vertex stays in one partition") {
    val s = TestGraphs.fromPairs(Seq((1L, 2L), (2L, 3L), (3L, 1L)))
    val q = Metrics.evaluate(s, Array(0, 0, 0), 4)
    assert(q.replicationFactor == 1.0)
    assert(q.numReplicas == 0)
    assert(q.relativeBalance == 4.0) // all edges on 1 of 4 partitions
  }

  test("invalid partition ids are rejected") {
    val s = TestGraphs.fromPairs(Seq((1L, 2L)))
    intercept[IllegalArgumentException] { Metrics.evaluate(s, Array(7), 2) }
    intercept[IllegalArgumentException] { Metrics.evaluate(s, Array(-1), 2) }
  }

  test("assignment length must match the stream") {
    val s = TestGraphs.fromPairs(Seq((1L, 2L), (2L, 3L)))
    intercept[IllegalArgumentException] { Metrics.evaluate(s, Array(0), 2) }
  }

  test("bitset path works beyond 64 partitions") {
    // star around vertex 1 across 100 partitions
    val n = 100
    val s = TestGraphs.fromPairs((1 to n).map(i => (0L, i.toLong)))
    val q = Metrics.evaluate(s, Array.tabulate(n)(identity), n)
    assert(q.replicationFactor == (n + n).toDouble / (n + 1))
    assert(q.partitionSizes.forall(_ == 1L))
  }

  test("driver metrics match the DataFrame metrics") {
    val s = TestGraphs.tiny(spark)
    val part = new repro.partitioners.DbhPartitioner().partition(s, 8).part
    val q = Metrics.evaluate(s, part, 8)
    val df = Metrics.assignmentDF(spark, s, part)
    val row = MetricsDF.replicationFactorDF(df).collect()(0)
    assert(math.abs(row.getDouble(0) - q.replicationFactor) < 1e-9)
    assert(row.getLong(1) == s.numVertices)
    assert(row.getLong(2) == q.numReplicas + s.numVertices)
    val sizes = MetricsDF.partitionSizesDF(df).collect().map(r => r.getLong(1))
    assert(sizes.toSeq == q.partitionSizes.filter(_ > 0).toSeq)
  }

  test("oracle: DataFrame replication factor matches DuckDB") {
    val s = TestGraphs.handStream
    val part = Array(0, 1, 0, 1, 2, 2, 0, 1)
    val df = Metrics.assignmentDF(spark, s, part)
    Oracle.assertEquivalent(MetricsDF.replicationFactorDF(df),
      """SELECT AVG(np) AS rf, COUNT(*) AS vertices, SUM(np) AS replicas FROM (
        |  SELECT v, COUNT(DISTINCT part) AS np FROM (
        |    SELECT src AS v, part FROM assigned
        |    UNION SELECT dst AS v, part FROM assigned
        |  ) GROUP BY v
        |)""".stripMargin,
      "assigned" -> df)
  }

  test("oracle: DataFrame partition sizes match DuckDB") {
    val s = TestGraphs.tiny(spark)
    val part = new repro.partitioners.HashingPartitioner().partition(s, 16).part
    val df = Metrics.assignmentDF(spark, s, part)
    Oracle.assertEquivalent(MetricsDF.partitionSizesDF(df),
      "SELECT part, COUNT(*) AS edges FROM assigned GROUP BY part ORDER BY part",
      "assigned" -> df)
  }

  test("oracle: mirror counts per partition match DuckDB") {
    val s = TestGraphs.handStream
    val part = Array(0, 1, 0, 1, 2, 2, 0, 1)
    val df = Metrics.assignmentDF(spark, s, part)
    val mirrorsPerPart = df.select(col("src") as "v", col("part"))
      .union(df.select(col("dst") as "v", col("part"))).distinct()
      .groupBy("part").agg(count(lit(1)) as "verts").orderBy("part")
    Oracle.assertEquivalent(mirrorsPerPart,
      """SELECT part, COUNT(*) AS verts FROM (
        |  SELECT DISTINCT v, part FROM (
        |    SELECT src AS v, part FROM assigned
        |    UNION ALL SELECT dst AS v, part FROM assigned
        |  )
        |) GROUP BY part ORDER BY part""".stripMargin,
      "assigned" -> df)
  }

  test("PartitionQuality.vertices counts only vertices that have an edge") {
    // a prefix of Tiny keeps all of Tiny's labels, most without an edge
    val s = TestGraphs.tiny(spark).take(500)
    val withEdge = (s.src ++ s.dst).distinct.length
    assert(withEdge < s.numVertices)
    val part = Array.tabulate(s.numEdges)(_ % 3)
    val q = Metrics.evaluate(s, part, 3)
    assert(q.vertices == withEdge)
    assert(q.replicationFactor == (q.numReplicas + withEdge).toDouble / withEdge)
  }

  test("the replica table rejects a size past the array limit before allocating") {
    // 2^30 vertices × 4 words: the Int product wraps to 0, a silent empty table
    val e = intercept[IllegalArgumentException] { new ReplicaTable(1 << 30, 256) }
    assert(e.getMessage.contains("|V| = 1073741824") && e.getMessage.contains("k = 256"),
      e.getMessage)
    intercept[IllegalArgumentException] { new ReplicaTable(Int.MaxValue, 65) }
    val t = new ReplicaTable(3, 130)
    t.add(2, 129); t.add(2, 129); t.add(2, 0)
    assert(t.contains(2, 129) && t.contains(2, 0) && !t.contains(1, 129))
    assert(t.entries == 2 && t.isEmpty(0) && !t.isEmpty(2))
  }
}
