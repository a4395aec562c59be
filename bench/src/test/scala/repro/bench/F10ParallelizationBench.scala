package repro.bench

import repro.SparkSpec
import repro.core._

/** Paper Fig. 10 — parallelization of the cluster partitioning game:
  * (a) computation time falls with the thread count (paper: 1091 s at 8
  * threads → 429 s at 32 on their testbed); (b) runtime is insensitive
  * to batch size, rising only slightly with bigger batches.
  */
class F10ParallelizationBench extends SparkSpec {

  private val nproc = Runtime.getRuntime.availableProcessors

  /** Clusters the game plays on it-lite at k=64: the ids with intra or cut
    * edges, of all the ids pass 1 allocates. */
  private lazy val players: String = {
    val s = BenchData.stream(spark, "it-lite")
    val cg = ClusterGraph.build(s, StreamingClustering.cluster(s, ClugpConfig().vMax(s.numEdges, 64)))
    s"${(0 until cg.numClusters).count(cg.isPlayer)}/${cg.numClusters}"
  }

  /** Median milliseconds of 5 timed runs, of the game alone and of the
    * cluster-graph build before it, and the RF. */
  private def gameTime(threads: Int, batch: Int): (Long, Long, Double) = {
    val s = BenchData.stream(spark, "it-lite")
    val k = 64
    val runs = Seq.fill(5)(Clugp.passes(s, k, ClugpConfig(gameMode = ParallelGame(batch, threads))))
    def median(ms: Seq[Long]): Long = ms.sorted.apply(ms.length / 2)
    (median(runs.map(_.gameMs)), median(runs.map(_.cgraphMs)),
      Metrics.evaluate(s, runs.head.part, k).replicationFactor)
  }

  /** One untimed run before a sweep, so its first row does not time the
    * JIT compiling the passes. */
  private def warmUp(): Unit = Clugp.passes(BenchData.stream(spark, "it-lite"), 64)

  test("Fig 10a: game time vs number of threads") {
    val batch = 6400
    // more threads than cores only queue behind each other
    val threads = Seq(1, 2, 4, 8, 16).filter(_ <= nproc)
    warmUp()
    val rows = for (t <- threads) yield {
      val (ms, cgraphMs, rf) = gameTime(t, batch)
      Seq(t.toString, ms.toString, f"$rf%.3f", players, nproc.toString, cgraphMs.toString)
    }
    BenchData.emit("F10a game time vs threads (it-lite, k=64, batch=6400)",
      Seq("threads", "game_ms", "rf", "players", "nproc", "cgraph_ms"), rows)
    val t = rows.map(r => r(0).toInt -> r(1).toLong).toMap
    // more threads should not be slower overall (paper: good speedup);
    // allow generous noise at millisecond scales
    assert(t(threads.max) <= t(1) * 1.2 + 50,
      s"${threads.max} threads ${t(threads.max)}ms vs 1 thread ${t(1)}ms")
    // quality is thread-count independent (deterministic batch games)
    assert(rows.map(_(2)).distinct.length == 1)
  }

  test("Fig 10b: game time vs batch size") {
    val threads = math.min(8, nproc)
    warmUp()
    val rows = for (b <- Seq(800, 3200, 6400, 25600)) yield {
      val (ms, cgraphMs, rf) = gameTime(threads, b)
      Seq(b.toString, ms.toString, f"$rf%.3f", players, nproc.toString, cgraphMs.toString)
    }
    BenchData.emit(s"F10b game time vs batch size (it-lite, k=64, $threads threads)",
      Seq("batch", "game_ms", "rf", "players", "nproc", "cgraph_ms"), rows)
    // runtime stays within a small factor across a 32× batch range
    val times = rows.map(_(1).toLong)
    assert(times.max <= math.max(200, times.min * 6),
      s"batch-size sensitivity too high: $times")
  }
}
