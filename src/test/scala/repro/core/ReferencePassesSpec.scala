package repro.core

import java.util.Arrays

import repro.{SparkSpec, TestGraphs, WebGraphs}

/** The primitive passes give exactly what [[ReferencePasses]] gives. */
class ReferencePassesSpec extends SparkSpec {

  private lazy val ukLite = EdgeStream.fromDF(WebGraphs.UKLite.df(spark))

  private def graphs: Seq[(String, EdgeStream)] = Seq(
    "tiny" -> TestGraphs.tiny(spark),
    "tiny-social" -> TestGraphs.tinySocial(spark),
    "uk-lite" -> ukLite)

  private val Ks = Seq(4, 64, 256)

  /** V_max as [[Clugp]] derives it with default settings. */
  private def vMax(s: EdgeStream, k: Int): Long = math.max(2L, s.numEdges.toLong / k)

  private def assertSame(a: ClusterPartitioningResult, b: ClusterPartitioningResult,
                         what: String): Unit = {
    assert(Arrays.equals(a.assignment, b.assignment), s"$what: assignments differ")
    assert((a.rounds, a.moves) == ((b.rounds, b.moves)), s"$what: (rounds, moves)")
  }

  /** The parallel game at every init, batch size (64, 512, 6400 and one
    * batch, which on one thread is the sequential game) and thread count,
    * against the reference. */
  private def assertGameMatches(cg: ClusterGraph, k: Int, what: String): Unit = {
    val m = cg.numClusters
    val lambda = cg.lambdaMax(k)
    for (init <- Seq(RangeInit, RandomInit); batch <- Seq(64, 512, 6400, math.max(m, 1));
         threads <- Seq(1, 4))
      assertSame(ClusterPartitioning.parallelGame(cg, k, lambda, batch, threads, init = init),
        ReferencePasses.parallelGame(cg, k, lambda, batch, threads, init = init),
        s"$what $init batch=$batch threads=$threads")
  }

  /** Asserts `a` is the reference cluster graph `r` up to the order of each
    * cluster's neighbours, and lists each cluster's neighbours strictly
    * ascending. */
  private def assertSameGraph(a: ClusterGraph, r: ClusterGraph, what: String): Unit = {
    assert(a.numClusters == r.numClusters, s"$what: numClusters")
    assert(Arrays.equals(a.sizes, r.sizes), s"$what: sizes")
    assert(Arrays.equals(a.cutDegree, r.cutDegree), s"$what: cutDegree")
    assert(a.totalIntraEdges == r.totalIntraEdges, s"$what: totalIntraEdges")
    assert(a.totalCutEdges == r.totalCutEdges, s"$what: totalCutEdges")
    for (c <- 0 until a.numClusters) {
      val ids = a.neighborIds(c)
      assert(ids.length == a.neighborWeights(c).length, s"$what: weights of $c")
      assert((1 until ids.length).forall(j => ids(j - 1) < ids(j)), s"$what: neighbours of $c not ascending")
      assert(ids.zip(a.neighborWeights(c)).toMap == r.neighborIds(c).zip(r.neighborWeights(c)).toMap,
        s"$what: neighbours of $c")
    }
  }

  test("pass 1 equals the reference: clusters, degrees, divided flags, volumes, mirrors") {
    for ((name, s) <- graphs; k <- Ks; split <- Seq(true, false)) {
      val what = s"$name k=$k split=$split"
      val a = StreamingClustering.cluster(s, vMax(s, k), split)
      val r = ReferencePasses.cluster(s, vMax(s, k), split)
      assert(Arrays.equals(a.clu, r.clu), s"$what: clu")
      assert(Arrays.equals(a.deg, r.deg), s"$what: deg")
      assert(Arrays.equals(a.divided, r.divided), s"$what: divided")
      assert(Arrays.equals(a.volumes, r.volumes), s"$what: volumes")
      assert(a.numClusters == r.numClusters, s"$what: numClusters")
      assert(a.mirrorStart.length == s.numVertices + 1, s"$what: mirrorStart length")
      assert(a.mirrorIds.length == r.mirrorClusters.valuesIterator.map(_.length).sum,
        s"$what: one mirror entry per split")
      for (v <- 0 until s.numVertices) {
        val mine = a.mirrorIds.slice(a.mirrorStart(v), a.mirrorStart(v + 1)).toSeq
        assert(mine == r.mirrorClusters.getOrElse(v, Nil), s"$what: mirrors of $v")
      }
      assert(a.mirrorClusters == r.mirrorClusters, s"$what: mirrorClusters")
    }
  }

  test("the cluster graph equals the reference, each cluster's neighbours ascending") {
    for ((name, s) <- graphs; k <- Ks; split <- Seq(true, false)) {
      val cl = StreamingClustering.cluster(s, vMax(s, k), split)
      assertSameGraph(ClusterGraph.build(s, cl), ReferencePasses.clusterGraph(s, cl), s"$name k=$k split=$split")
    }
  }

  test("cut edges both ways between two clusters give one neighbour of weight 2 on each side") {
    // clusters {1, 2} and {3, 4}, joined by 2 -> 3 and 3 -> 2
    val s = TestGraphs.fromPairs(Seq((1L, 2L), (2L, 3L), (3L, 4L), (3L, 2L)))
    val cl = ReferencePasses.clusteringResult(Array(0, 0, 1, 1), Array(1, 3, 3, 1),
      Array.fill(4)(false), Map.empty, 2, Array(4L, 4L))
    val cg = ClusterGraph.build(s, cl)
    assert(cg.neighborIds.map(_.toSeq).toSeq == Seq(Seq(1), Seq(0)))
    assert(cg.neighborWeights.map(_.toSeq).toSeq == Seq(Seq(2L), Seq(2L)))
    assert(cg.cutDegree.toSeq == Seq(2L, 2L) && cg.sizes.toSeq == Seq(1L, 1L))
    assert(cg.totalCutEdges == 2 && cg.totalIntraEdges == 2)
    assertSameGraph(cg, ReferencePasses.clusterGraph(s, cl), "hand stream")
  }

  test("pass 2 equals the reference for every init, batch size and thread count") {
    for ((name, s) <- graphs; k <- Ks) {
      val cg = ClusterGraph.build(s, StreamingClustering.cluster(s, vMax(s, k)))
      assertGameMatches(cg, k, s"$name k=$k")
    }
  }

  test("pass 2 equals the reference on a cluster graph padded with idle ids") {
    // thousands of empty ids before, between and after the clusters of a
    // real cluster graph, so many batches hold no player at all
    val cg0 = ClusterGraph.build(TestGraphs.tiny(spark),
      StreamingClustering.cluster(TestGraphs.tiny(spark), vMax(TestGraphs.tiny(spark), 16)))
    val gap = 2500; val every = 300
    def id(c: Int): Int = c + gap * (c / every + 1)
    val m = id(cg0.numClusters - 1) + 1 + gap
    val sizes = new Array[Long](m); val cutDeg = new Array[Long](m)
    val nbrIds = Array.fill(m)(Array.emptyIntArray)
    val nbrW = Array.fill(m)(Array.emptyLongArray)
    for (c <- 0 until cg0.numClusters) {
      sizes(id(c)) = cg0.sizes(c); cutDeg(id(c)) = cg0.cutDegree(c)
      nbrIds(id(c)) = cg0.neighborIds(c).map(id); nbrW(id(c)) = cg0.neighborWeights(c)
    }
    val cg = ClusterGraph(sizes, nbrIds, nbrW, cutDeg, cg0.totalIntraEdges, cg0.totalCutEdges)
    for (k <- Seq(4, 64)) assertGameMatches(cg, k, s"padded k=$k")
  }

  test("game equals parallelGame with one batch on one thread") {
    for ((name, s) <- graphs; k <- Ks; init <- Seq(RangeInit, RandomInit)) {
      val cg = ClusterGraph.build(s, StreamingClustering.cluster(s, vMax(s, k)))
      val lambda = cg.lambdaMax(k)
      assertSame(ClusterPartitioning.parallelGame(cg, k, lambda, Int.MaxValue, 1, init = init),
        ClusterPartitioning.parallelGame(cg, k, lambda, cg.numClusters, 1, init = init),
        s"$name k=$k $init")
    }
  }

  test("pass 3 equals the reference") {
    for ((name, s) <- graphs; k <- Ks; tau <- Seq(1.0, 1.2)) {
      val a = StreamingClustering.cluster(s, vMax(s, k))
      val r = ReferencePasses.cluster(s, vMax(s, k))
      val cg = ClusterGraph.build(s, a)
      val placed = ClusterPartitioning.parallelGame(cg, k, cg.lambdaMax(k))
      assert(Arrays.equals(
        PartitionTransformation.transform(s, a, placed.assignment, k, tau),
        ReferencePasses.transform(s, r, placed.assignment, k, tau)), s"$name k=$k tau=$tau")
    }
  }

  test("Clugp.run equals the reference pipeline") {
    val configs = Seq(ClugpConfig(), ClugpConfig(splitting = false),
      ClugpConfig(gameMode = ParallelGame(batchSize = Int.MaxValue, threads = 1), init = RandomInit))
    for ((name, s) <- graphs; k <- Ks; cfg <- configs)
      assert(Arrays.equals(Clugp.run(s, k, cfg).part, ReferencePasses.run(s, k, cfg)),
        s"$name k=$k $cfg")
  }
}
