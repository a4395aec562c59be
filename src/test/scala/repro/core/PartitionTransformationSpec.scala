package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.core.ReferencePasses.clusteringResult

class PartitionTransformationSpec extends SparkSpec {

  private def pipeline(s: EdgeStream, k: Int, tau: Double) = {
    val cl = StreamingClustering.cluster(s, s.numEdges.toLong / k, splitting = true)
    val cg = ClusterGraph.build(s, cl)
    val placed = ClusterPartitioning.parallelGame(cg, k, cg.lambdaMax(k), Int.MaxValue, 1)
    (cl, PartitionTransformation.transform(s, cl, placed.assignment, k, tau))
  }

  test("every edge gets a valid partition") {
    val s = TestGraphs.tiny(spark)
    for (k <- Seq(2, 8, 32)) {
      val (_, part) = pipeline(s, k, 1.0)
      assert(part.length == s.numEdges)
      assert(part.forall(p => p >= 0 && p < k))
    }
  }

  test("partition loads respect L_max = ceil(tau |E| / k)") {
    val s = TestGraphs.tiny(spark)
    for (k <- Seq(4, 16, 64); tau <- Seq(1.0, 1.1, 2.0)) {
      val (_, part) = pipeline(s, k, tau)
      val lMax = math.ceil(tau * s.numEdges / k.toDouble).toLong
      val load = new Array[Long](k)
      part.foreach(load(_) += 1)
      assert(load.max <= lMax, s"k=$k tau=$tau: ${load.max} > $lMax")
    }
  }

  test("relative balance is 1.0 at tau = 1 (the paper's load-balance result)") {
    val s = TestGraphs.tiny(spark)
    for (k <- Seq(8, 32)) {
      val (_, part) = pipeline(s, k, 1.0)
      val q = Metrics.evaluate(s, part, k)
      assert(q.relativeBalance <= 1.0 + k.toDouble / s.numEdges + 1e-9)
    }
  }

  test("tau < 1 is rejected") {
    val s = TestGraphs.handStream
    val cl = StreamingClustering.cluster(s, 100, splitting = true)
    intercept[IllegalArgumentException] {
      PartitionTransformation.transform(s, cl, Array.fill(cl.numClusters)(0), 2, 0.5)
    }
  }

  test("same-partition endpoints keep the edge there (no spurious cut)") {
    // both vertices in one cluster mapped to partition 1, tau loose
    val s = TestGraphs.fromPairs(Seq((1L, 2L), (1L, 2L), (2L, 1L)))
    val cl = clusteringResult(Array(0, 0), Array(3, 3), Array(false, false),
      Map.empty, 1, Array(6L))
    val part = PartitionTransformation.transform(s, cl, Array(1), 4, 4.0)
    assert(part.toSeq == Seq(1, 1, 1))
  }

  test("higher-degree endpoint is cut when partitions differ") {
    // u (deg 3) vs v (deg 1): edge goes to u's... no — to the partition of
    // the LOWER degree vertex's side: deg[v] < deg[u] -> assign to p_v
    val s = TestGraphs.fromPairs(Seq((1L, 2L)))
    val cl = clusteringResult(Array(0, 1), Array(5, 1), Array(false, false),
      Map.empty, 2, Array(5L, 1L))
    val part = PartitionTransformation.transform(s, cl, Array(0, 1), 4, 4.0)
    // deg(u)=5 > deg(v)=1 -> cut u -> edge lives at p_v = 1
    assert(part(0) == 1)
  }

  test("an edge rides an existing mirror instead of minting a replica") {
    // u divided with a mirror in cluster 1 (partition 1); v master in
    // cluster 1. The edge should go to partition 1 (u already there).
    val s = TestGraphs.fromPairs(Seq((1L, 2L)))
    val cl = clusteringResult(Array(0, 1), Array(1, 9), Array(true, false),
      Map(0 -> Seq(1)), 2, Array(1L, 9L))
    val part = PartitionTransformation.transform(s, cl, Array(0, 1), 4, 4.0)
    assert(part(0) == 1)
  }

  test("divided endpoint is cut in preference to an undivided one") {
    // u divided (mirror in an unrelated partition), v not: cut u -> p_v
    val s = TestGraphs.fromPairs(Seq((1L, 2L)))
    val cl = clusteringResult(Array(0, 1), Array(9, 1), Array(true, false),
      Map(0 -> Seq(2)), 3, Array(9L, 1L, 0L))
    // clusters 0,1,2 -> partitions 0,1,3: mirror partition 3 != p_v
    val part = PartitionTransformation.transform(s, cl, Array(0, 1, 3), 4, 4.0)
    assert(part(0) == 1)
  }

  test("overflow spills to an underflow partition") {
    // k=2, tau=1: L_max = 2; four edges all preferring partition 0
    val s = TestGraphs.fromPairs(Seq((1L, 2L), (1L, 3L), (1L, 4L), (1L, 5L)))
    val cl = clusteringResult(Array(0, 0, 0, 0, 0), Array(4, 1, 1, 1, 1),
      Array(false, false, false, false, false), Map.empty, 1, Array(8L))
    val part = PartitionTransformation.transform(s, cl, Array(0), 2, 1.0)
    val load = part.groupBy(identity).view.mapValues(_.length).toMap
    assert(load(0) == 2 && load(1) == 2)
  }

  test("space behaviour: transformation only tracks k loads plus mirrors") {
    // structural property via behaviour: result depends only on stream,
    // cluster map, degrees, divided flags, placement — rerun is identical
    val s = TestGraphs.tiny(spark)
    val (cl, a) = pipeline(s, 8, 1.0)
    val cg = ClusterGraph.build(s, cl)
    val placed = ClusterPartitioning.parallelGame(cg, 8, cg.lambdaMax(8), Int.MaxValue, 1)
    val b = PartitionTransformation.transform(s, cl, placed.assignment, 8, 1.0)
    assert(a.toSeq == b.toSeq)
  }

  test("k < 1 is rejected with the value named") {
    val s = TestGraphs.handStream
    val cl = StreamingClustering.cluster(s, 100, splitting = true)
    for (k <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException] {
        PartitionTransformation.transform(s, cl, Array.fill(cl.numClusters)(0), k, 1.0)
      }
      assert(e.getMessage.contains(s"got $k"), e.getMessage)
    }
  }
}
