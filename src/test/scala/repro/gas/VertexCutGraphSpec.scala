package repro.gas

import org.apache.spark.sql.functions._
import repro.core.{Clugp, Metrics}
import repro.{Oracle, SparkSpec, TestGraphs}

class VertexCutGraphSpec extends SparkSpec {

  test("topology counts agree with driver-side metrics") {
    val s = TestGraphs.tiny(spark).take(5000)
    val seen = (s.src ++ s.dst).distinct.length.toLong
    for (k <- Seq(4, 16)) {
      val part = Clugp.run(s, k).part
      val q = Metrics.evaluate(s, part, k)
      val topo = VertexCutGraph.topology(Metrics.assignmentDF(spark, s, part), k)
      assert(topo.k == k)
      assert(topo.masters == seen)
      assert(topo.mirrors == q.numReplicas)
      assert(topo.replicas == q.numReplicas + seen)
      assert(math.abs(topo.replicationFactor - q.replicationFactor) < 1e-9)
      assert(topo.edgesPerPartition.toSeq == q.partitionSizes.toSeq)
      assert(topo.maxEdges == q.partitionSizes.max)
      assert(topo.messagesPerIteration == 2 * q.numReplicas)
    }
  }

  test("hand example topology") {
    // (0,1)->p0, (1,2)->p1: vertex 1 is mirrored
    val s = TestGraphs.fromPairs(Seq((1L, 2L), (2L, 3L)))
    val topo = VertexCutGraph.topology(Metrics.assignmentDF(spark, s, Array(0, 1)), 2)
    assert(topo.masters == 3 && topo.replicas == 4 && topo.mirrors == 1)
    assert(topo.messagesPerIteration == 2)
    assert(topo.edgesPerPartition.toSeq == Seq(1L, 1L))
  }

  test("replicaTable marks exactly one master per vertex") {
    val s = TestGraphs.tiny(spark).take(3000)
    val seen = (s.src ++ s.dst).distinct.length.toLong
    val df = Metrics.assignmentDF(spark, s, Clugp.run(s, 8).part)
    val rt = VertexCutGraph.replicaTable(spark, df)
    val masters = rt.where(col("isMaster")).groupBy("v").count()
    assert(masters.where(col("count") =!= 1).count() == 0)
    assert(masters.count() == seen)
    // master is the lowest-numbered holding partition
    val bad = rt.groupBy("v").agg(min("part") as "mn")
      .join(rt.where(col("isMaster")), "v")
      .where(col("mn") =!= col("part"))
    assert(bad.count() == 0)
  }

  test("oracle: replica table cardinality matches DuckDB") {
    val s = TestGraphs.handStream
    val df = Metrics.assignmentDF(spark, s, Array(0, 1, 0, 1, 2, 2, 0, 1))
    val counts = VertexCutGraph.replicaTable(spark, df)
      .groupBy("v").agg(count(lit(1)) as "replicas").orderBy("v")
    Oracle.assertEquivalent(counts,
      """SELECT v, COUNT(*) AS replicas FROM (
        |  SELECT DISTINCT v, part FROM (
        |    SELECT src AS v, part FROM assigned
        |    UNION ALL SELECT dst AS v, part FROM assigned
        |  )
        |) GROUP BY v ORDER BY v""".stripMargin,
      "assigned" -> df)
  }

  test("empty partitions report zero edges") {
    val s = TestGraphs.fromPairs(Seq((1L, 2L)))
    val topo = VertexCutGraph.topology(Metrics.assignmentDF(spark, s, Array(0)), 4)
    assert(topo.edgesPerPartition.toSeq == Seq(1L, 0L, 0L, 0L))
    assert(topo.mirrors == 0)
  }

  test("GasTopology.of a driver-side quality equals the DataFrame topology") {
    // a prefix keeps the full stream's labels, so some have no edge; at
    // k = 100 each vertex's partition set spans two bitset words
    val s = TestGraphs.tiny(spark).take(4000)
    assert(s.degrees.count(_ > 0) < s.numVertices)
    for (k <- Seq(4, 100)) {
      val part = Array.tabulate(s.numEdges)(i => (s.src(i) * 31 + i / 7) % k)
      val driver = GasTopology.of(Metrics.evaluate(s, part, k))
      val df = VertexCutGraph.topology(Metrics.assignmentDF(spark, s, part), k)
      assert(driver.k == k && df.k == k)
      assert(driver.masters == df.masters && driver.masters == s.degrees.count(_ > 0))
      assert(driver.replicas == df.replicas)
      assert(driver.mirrors == df.mirrors && driver.mirrors > 0)
      assert(driver.edgesPerPartition.toSeq == df.edgesPerPartition.toSeq)
    }
  }

  test("an empty assignment has an all-zero topology over k empty partitions") {
    val s = TestGraphs.fromPairs(Seq((1L, 2L))).take(0)
    val k = 5
    val q = Metrics.evaluate(s, Array.emptyIntArray, k)
    for (topo <- Seq(GasTopology.of(q),
                     VertexCutGraph.topology(Metrics.assignmentDF(spark, s, Array.emptyIntArray), k))) {
      assert(topo.k == k)
      assert(topo.masters == 0 && topo.replicas == 0 && topo.mirrors == 0)
      assert(topo.edgesPerPartition.toSeq == Seq.fill(k)(0L))
      assert(topo.maxEdges == 0 && topo.messagesPerIteration == 0)
    }
  }
}
