package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.core.ReferencePasses.clusteringResult

class ClusterGraphSpec extends SparkSpec {

  private def build(s: EdgeStream, vMax: Long, split: Boolean = true) = {
    val cl = StreamingClustering.cluster(s, vMax, split)
    (cl, ClusterGraph.build(s, cl))
  }

  test("intra + cut edges account for every edge") {
    val s = TestGraphs.tiny(spark)
    for (k <- Seq(4, 16, 64)) {
      val (_, cg) = build(s, s.numEdges.toLong / k)
      assert(cg.totalIntraEdges + cg.totalCutEdges == s.numEdges)
    }
  }

  test("neighbor weights are symmetric") {
    val s = TestGraphs.tiny(spark)
    val (_, cg) = build(s, s.numEdges.toLong / 16)
    val w = scala.collection.mutable.Map[(Int, Int), Long]()
    for (c <- 0 until cg.numClusters; j <- cg.neighborIds(c).indices)
      w((c, cg.neighborIds(c)(j))) = cg.neighborWeights(c)(j)
    w.foreach { case ((a, b), x) => assert(w.get((b, a)).contains(x), s"asym at ($a,$b)") }
  }

  test("cutDegree equals the sum of neighbor weights") {
    val s = TestGraphs.tiny(spark)
    val (_, cg) = build(s, s.numEdges.toLong / 8)
    for (c <- 0 until cg.numClusters)
      assert(cg.cutDegree(c) == cg.neighborWeights(c).sum)
  }

  test("total cut degree is twice the cut edge count") {
    val s = TestGraphs.tiny(spark)
    val (_, cg) = build(s, s.numEdges.toLong / 16)
    assert(cg.cutDegree.sum == 2L * cg.totalCutEdges)
  }

  test("hand example: two clusters with one crossing edge") {
    // vertices 1,2 cluster together; 3,4 cluster together; (2,3) crosses
    val s = TestGraphs.fromPairs(Seq((1L, 2L), (1L, 2L), (3L, 4L), (2L, 3L)))
    // build with a huge vMax: migration merges 1-2 and 3-4; (2,3) arrives
    // last — the smaller cluster's endpoint migrates, merging everything.
    // Use the cluster map directly instead: craft clustering by running
    // with vMax tiny enough to prevent the final merge.
    val cl = clusteringResult(
      clu = Array(0, 0, 1, 1),
      deg = Array(2, 3, 2, 1),
      divided = Array(false, false, false, false),
      mirrorClusters = Map.empty, numClusters = 2, volumes = Array(4L, 4L))
    val cg = ClusterGraph.build(s, cl)
    assert(cg.sizes.toSeq == Seq(2L, 1L))
    assert(cg.totalCutEdges == 1L)
    assert(cg.neighborIds(0).toSeq == Seq(1))
    assert(cg.neighborWeights(0).toSeq == Seq(1L))
    assert(cg.cutDegree.toSeq == Seq(1L, 1L))
  }

  test("lambdaMax follows Theorem 5's formula") {
    val cl = clusteringResult(Array(0, 1), Array(1, 1), Array(false, false),
      Map.empty, 2, Array(2L, 2L))
    val s = TestGraphs.fromPairs(Seq((1L, 2L)))
    val cg = ClusterGraph.build(s, cl)
    // one cut edge, zero intra edges -> guard against /0 via max(1, intra)
    assert(cg.totalCutEdges == 1 && cg.totalIntraEdges == 0)
    assert(cg.lambdaMax(4) == 16.0 * 1.0 / 1.0)
  }

  test("singleton clusters with no neighbors have empty adjacency") {
    val s = TestGraphs.fromPairs(Seq((1L, 2L)))
    val cl = clusteringResult(Array(0, 0), Array(1, 1), Array(false, false),
      Map.empty, 1, Array(2L))
    val cg = ClusterGraph.build(s, cl)
    assert(cg.neighborIds(0).isEmpty && cg.cutDegree(0) == 0)
    assert(cg.sizes(0) == 1 && cg.totalCutEdges == 0)
  }
}
