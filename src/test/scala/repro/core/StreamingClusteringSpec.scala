package repro.core

import repro.{SparkSpec, TestGraphs}

class StreamingClusteringSpec extends SparkSpec {

  private def invariants(s: EdgeStream, r: ClusteringResult): Unit = {
    // every streamed vertex is clustered, with a valid cluster id
    s.src.foreach(v => assert(r.clu(v) >= 0 && r.clu(v) < r.numClusters))
    s.dst.foreach(v => assert(r.clu(v) >= 0 && r.clu(v) < r.numClusters))
    // degree array equals true stream degrees
    assert(r.deg.toSeq == s.degrees.toSeq)
    // volume bookkeeping conserves total degree: every edge adds 2,
    // splits and migrations move volume but never create or destroy it
    assert(r.volumes.sum == 2L * s.numEdges)
    // divided flag and mirror table agree
    r.clu.indices.foreach { v =>
      assert(r.divided(v) == r.mirrorClusters.contains(v))
    }
    r.mirrorClusters.foreach { case (_, cs) =>
      assert(cs.nonEmpty)
      cs.foreach(c => assert(c >= 0 && c < r.numClusters))
    }
  }

  test("clustering invariants hold on the tiny web graph (several V_max)") {
    val s = TestGraphs.tiny(spark)
    for (k <- Seq(4, 16, 64); split <- Seq(true, false)) {
      val r = StreamingClustering.cluster(s, s.numEdges.toLong / k, split)
      invariants(s, r)
    }
  }

  test("clustering invariants hold on the tiny social graph") {
    val s = TestGraphs.tinySocial(spark)
    for (k <- Seq(4, 32)) {
      invariants(s, StreamingClustering.cluster(s, s.numEdges.toLong / k, splitting = true))
    }
  }

  test("without splitting no vertex is divided and m <= |V|") {
    val s = TestGraphs.tiny(spark)
    val r = StreamingClustering.cluster(s, s.numEdges.toLong / 16, splitting = false)
    assert(!r.divided.exists(identity))
    assert(r.mirrorClusters.isEmpty)
    assert(r.numClusters <= s.numVertices)
  }

  test("splitting marks divided vertices when clusters overflow") {
    val s = TestGraphs.tiny(spark)
    val r = StreamingClustering.cluster(s, s.numEdges.toLong / 16, splitting = true)
    assert(r.divided.count(identity) > 0)
  }

  test("a huge V_max produces no splits — CLUGP degenerates to Holl") {
    val s = TestGraphs.tiny(spark)
    val a = StreamingClustering.cluster(s, Long.MaxValue / 4, splitting = true)
    val b = StreamingClustering.cluster(s, Long.MaxValue / 4, splitting = false)
    assert(a.clu.toSeq == b.clu.toSeq)
    assert(a.divided.count(identity) == 0)
  }

  test("migration merges connected vertices under a loose V_max") {
    // a path graph small enough to fit one cluster entirely
    val s = TestGraphs.fromPairs(Seq((1L, 2L), (2L, 3L), (3L, 4L), (4L, 5L)))
    val r = StreamingClustering.cluster(s, 1000, splitting = true)
    assert(r.clu.distinct.length == 1, "path should collapse into one cluster")
  }

  test("two disconnected cliques form two clusters") {
    val c1 = for (i <- 1L to 4L; j <- (i + 1) to 4L) yield (i, j)
    val c2 = for (i <- 11L to 14L; j <- (i + 1) to 14L) yield (i, j)
    val s = TestGraphs.fromPairs(c1 ++ c2)
    val r = StreamingClustering.cluster(s, 1000, splitting = true)
    val clusters = r.clu.distinct
    assert(clusters.length == 2)
    // members of the same clique share a cluster
    assert((0 to 3).map(r.clu).distinct.length == 1)
    assert((4 to 7).map(r.clu).distinct.length == 1)
  }

  test("cluster volumes never exceed V_max by more than one vertex's degree") {
    val s = TestGraphs.tiny(spark)
    val vMax = s.numEdges.toLong / 8
    val r = StreamingClustering.cluster(s, vMax, splitting = true)
    val maxDeg = s.degrees.max
    r.volumes.foreach(v => assert(v <= vMax + 2L * maxDeg))
  }

  test("splitting does not worsen the end-to-end replication factor (Theorem 1)") {
    // Theorem 1 is an upper-bound statement; empirically (bench F9 on
    // it-lite) splitting wins at k ≤ 64 and is a wash at k = 256. At the
    // tiny test scale we assert it never loses by more than a whisker.
    val s = TestGraphs.tiny(spark)
    for (k <- Seq(8, 16)) {
      def rf(split: Boolean): Double = {
        val cfg = ClugpConfig(splitting = split, gameMode = ParallelGame(batchSize = Int.MaxValue, threads = 1))
        Metrics.evaluate(s, Clugp.run(s, k, cfg).part, k).replicationFactor
      }
      val withSplit = rf(true); val withoutSplit = rf(false)
      assert(withSplit <= withoutSplit * 1.10,
        s"k=$k: split rf=$withSplit should not exceed holl rf=$withoutSplit by >10%")
    }
  }

  // property-style: invariants on 60 random streams × V_max × splitting
  for (seed <- 0 until 60) {
    test(s"property: invariants hold on random stream #$seed") {
      val rnd = new scala.util.Random(seed)
      val n = 1 + rnd.nextInt(300)
      val edges = Seq.fill(n) {
        val u = 1L + rnd.nextInt(40)
        var v = 1L + rnd.nextInt(40)
        if (v == u) v = (u % 40) + 1
        (u, v)
      }
      val vMax  = Seq(5L, 20L, 100L)(seed % 3)
      val split = seed % 2 == 0
      val s = TestGraphs.fromPairs(edges)
      invariants(s, StreamingClustering.cluster(s, vMax, split))
    }
  }
}
