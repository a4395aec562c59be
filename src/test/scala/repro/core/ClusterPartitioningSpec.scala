package repro.core

import repro.{SparkSpec, TestGraphs}

class ClusterPartitioningSpec extends SparkSpec {

  private def clusterGraph(k: Int): ClusterGraph = {
    val s = TestGraphs.tiny(spark)
    val cl = StreamingClustering.cluster(s, s.numEdges.toLong / k, splitting = true)
    ClusterGraph.build(s, cl)
  }

  /** Global cost φ(Λ) of Equation 10 over a full assignment. */
  private def globalCost(cg: ClusterGraph, part: Array[Int], k: Int, lambda: Double): Double = {
    val load = new Array[Long](k)
    for (c <- 0 until cg.numClusters) load(part(c)) += cg.sizes(c)
    var cut = 0L
    for (c <- 0 until cg.numClusters; j <- cg.neighborIds(c).indices)
      if (part(cg.neighborIds(c)(j)) != part(c)) cut += cg.neighborWeights(c)(j)
    lambda / k * load.map(l => l.toDouble * l).sum + cut / 2.0
  }

  test("game produces a valid assignment for every cluster") {
    val cg = clusterGraph(16)
    for (k <- Seq(2, 8, 16)) {
      val r = ClusterPartitioning.parallelGame(cg, k, cg.lambdaMax(k), Int.MaxValue, 1)
      assert(r.assignment.length == cg.numClusters)
      assert(r.assignment.forall(p => p >= 0 && p < k))
    }
  }

  test("game is deterministic in the seed") {
    val cg = clusterGraph(8)
    val a = ClusterPartitioning.parallelGame(cg, 8, 0.01, Int.MaxValue, 1, seed = 5)
    val b = ClusterPartitioning.parallelGame(cg, 8, 0.01, Int.MaxValue, 1, seed = 5)
    assert(a.assignment.toSeq == b.assignment.toSeq)
  }

  test("equilibrium admits no improving unilateral move (Nash, Definition 3)") {
    val cg = clusterGraph(8)
    val k = 8
    val lambda = cg.lambdaMax(k)
    val r = ClusterPartitioning.parallelGame(cg, k, lambda, Int.MaxValue, 1)
    val part = r.assignment
    val load = new Array[Long](k)
    for (c <- 0 until cg.numClusters) load(part(c)) += cg.sizes(c)
    // individual cost of cluster c on partition p, with c removed first
    def cost(c: Int, p: Int): Double = {
      var wTo = 0L
      for (j <- cg.neighborIds(c).indices)
        if (part(cg.neighborIds(c)(j)) == p) wTo += cg.neighborWeights(c)(j)
      val l = load(p) - (if (part(c) == p) cg.sizes(c) else 0L)
      lambda / k * cg.sizes(c) * (l + cg.sizes(c)) + 0.5 * (cg.cutDegree(c) - wTo)
    }
    for (c <- 0 until cg.numClusters) {
      val cur = cost(c, part(c))
      for (p <- 0 until k)
        assert(cost(c, p) >= cur - 1e-6, s"cluster $c could improve by moving to $p")
    }
  }

  test("each best-response move lowers the global cost (exact potential game)") {
    // follow the dynamics from a random start and check φ strictly decreases
    val cg = clusterGraph(8)
    val k = 8; val lambda = cg.lambdaMax(k)
    val r0 = ClusterPartitioning.parallelGame(cg, k, lambda, Int.MaxValue, 1,
      maxRounds = 0, init = RandomInit)
    val r1 = ClusterPartitioning.parallelGame(cg, k, lambda, Int.MaxValue, 1, init = RandomInit)
    assert(globalCost(cg, r1.assignment, k, lambda) <=
           globalCost(cg, r0.assignment, k, lambda) + 1e-6)
  }

  test("range init yields approximately balanced loads before any move") {
    val cg = clusterGraph(16)
    val k = 16
    val r = ClusterPartitioning.parallelGame(cg, k, cg.lambdaMax(k), Int.MaxValue, 1, maxRounds = 0)
    val load = new Array[Long](k)
    for (c <- 0 until cg.numClusters) load(r.assignment(c)) += cg.sizes(c)
    val avg = load.sum.toDouble / k
    assert(load.max <= avg * 1.5 + cg.sizes.max,
      s"range init imbalance: max=${load.max} avg=$avg")
  }

  test("parallel game covers all clusters and respects batch independence") {
    val cg = clusterGraph(16)
    for (threads <- Seq(1, 4); batch <- Seq(64, 1024)) {
      val r = ClusterPartitioning.parallelGame(cg, 8, cg.lambdaMax(8), batch, threads)
      assert(r.assignment.length == cg.numClusters)
      assert(r.assignment.forall(p => p >= 0 && p < 8))
    }
  }

  test("parallel game result does not depend on the thread count") {
    val cg = clusterGraph(16)
    val a = ClusterPartitioning.parallelGame(cg, 8, 0.01, 512, 1)
    val b = ClusterPartitioning.parallelGame(cg, 8, 0.01, 512, 8)
    assert(a.assignment.toSeq == b.assignment.toSeq)
  }

  test("greedy places larger clusters on emptier partitions (balanced)") {
    val cg = clusterGraph(16)
    val k = 8
    val r = ClusterPartitioning.greedy(cg, k)
    val load = new Array[Long](k)
    for (c <- 0 until cg.numClusters) load(r.assignment(c)) += cg.sizes(c)
    assert(load.max - load.min <= cg.sizes.max,
      "greedy LPT imbalance exceeds the largest cluster")
  }

  test("game on an empty cluster graph returns an empty assignment") {
    val cg = ClusterGraph(Array.emptyLongArray, Array.empty, Array.empty,
      Array.emptyLongArray, 0, 0)
    assert(ClusterPartitioning.parallelGame(cg, 4, 1.0).assignment.isEmpty)
  }

  test("rounds stay within the Theorem 6 style bound") {
    val cg = clusterGraph(8)
    val r = ClusterPartitioning.parallelGame(cg, 8, cg.lambdaMax(8), Int.MaxValue, 1, init = RandomInit)
    // Theorem 6 bounds rounds by the cut edge count; our cap is tighter
    assert(r.rounds <= math.max(1, cg.totalCutEdges))
    assert(r.rounds <= ClusterPartitioning.MaxRounds)
  }

  test("k=1 assigns everything to the only partition") {
    val cg = clusterGraph(8)
    val r = ClusterPartitioning.parallelGame(cg, 1, 1.0, Int.MaxValue, 1)
    assert(r.assignment.forall(_ == 0))
  }

  test("k < 1 fails clearly in every pass-2 entry point") {
    val cg = clusterGraph(8)
    for (k <- Seq(0, -3)) {
      val calls: Seq[() => ClusterPartitioningResult] = Seq(
        () => ClusterPartitioning.parallelGame(cg, k, 1.0, 64, 2),
        () => ClusterPartitioning.greedy(cg, k))
      calls.foreach { call =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"got $k"), e.getMessage)
      }
    }
  }
}
