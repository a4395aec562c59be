package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.WebGraphs
import repro.core._

/** Developer diagnostic: dissect the CLUGP pipeline on one dataset —
  * cluster counts, cut fractions, per-pass timings, and RF for each
  * variant/λ-weight — to tune reproduction parameters.
  */
object DiagJob {
  def main(args: Array[String]): Unit = {
    val dataset = args.lift(0).getOrElse("uk-lite")
    val k       = args.lift(1).map(_.toInt).getOrElse(64)
    val spark = SparkSession.builder.appName("clugp-diag")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      val spec = WebGraphs.all.find(_.name == dataset).get
      val raw = spec.df(spark).collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getLong(2)))
        .sortBy(t => (t._1, t._3))
      val stream = EdgeStream.fromPairs(raw.map(t => (t._1, t._2)).toIndexedSeq)
      // original id per dense id, to diagnose host alignment
      // (replicates fromPairs' first-appearance remap)
      val orig: Array[Long] = {
        val o = new Array[Long](stream.numVertices)
        val seen = new java.util.HashMap[Long, Int]()
        raw.foreach { case (s, d, _) =>
          if (!seen.containsKey(s)) { o(seen.size()) = s; seen.put(s, seen.size()) }
          if (!seen.containsKey(d)) { o(seen.size()) = d; seen.put(d, seen.size()) }
        }
        o
      }
      @inline def host(v: Int): Long = (orig(v) - 1) / spec.hostSize
      val intraHost = stream.src.indices.count(i => host(stream.src(i)) == host(stream.dst(i)))
      println(s"graph: |V|=${stream.numVertices} |E|=${stream.numEdges} maxDeg=${stream.degrees.max} " +
        f"intraHost=${intraHost * 100.0 / stream.numEdges}%.1f%%")

      val vMax = stream.numEdges.toLong / k
      for (split <- Seq(true, false)) {
        val cl = StreamingClustering.cluster(stream, vMax, split)
        val cg = ClusterGraph.build(stream, cl)
        val occ = cl.numOccupiedClusters
        val intraKept = stream.src.indices.count(i =>
          host(stream.src(i)) == host(stream.dst(i)) &&
            cl.clu(stream.src(i)) == cl.clu(stream.dst(i)))
        println(f"split=$split%-5s m=${cl.numClusters} occupied=$occ " +
          f"cut=${cg.totalCutEdges} (${cg.totalCutEdges * 100.0 / stream.numEdges}%.1f%%) " +
          f"divided=${cl.divided.count(identity)} intraHostKept=${intraKept * 100.0 / math.max(1, intraHost)}%.1f%% " +
          f"lambdaMax=${cg.lambdaMax(k)}%.5f")
      }

      // ablation: end-to-end RF for CLUGP vs CLUGP-S vs CLUGP-G across k,
      // plus a scrubbed variant (split clustering, divided info hidden)
      // to attribute quality to clustering shape vs transformation rules
      for (kk <- Seq(16, 64, 256)) {
        def rf(cfg: ClugpConfig): Double =
          Metrics.evaluate(stream, Clugp.run(stream, kk, cfg).part, kk).replicationFactor
        def rfScrubbed: Double = {
          val cl0 = StreamingClustering.cluster(stream, stream.numEdges.toLong / kk, splitting = true)
          val cl = cl0.copy(divided = new Array[Boolean](stream.numVertices),
                            mirrorStart = new Array[Int](stream.numVertices + 1),
                            mirrorIds = Array.emptyIntArray)
          val cg0 = ClusterGraph.build(stream, cl)
          val placed = ClusterPartitioning.parallelGame(cg0, kk, cg0.lambdaMax(kk))
          val part = PartitionTransformation.transform(stream, cl, placed.assignment, kk, 1.0)
          Metrics.evaluate(stream, part, kk).replicationFactor
        }
        def partCut(split: Boolean): Double = {
          val cl = StreamingClustering.cluster(stream, stream.numEdges.toLong / kk, split)
          val cg0 = ClusterGraph.build(stream, cl)
          val placed = ClusterPartitioning.parallelGame(cg0, kk, cg0.lambdaMax(kk))
          val a = placed.assignment
          stream.src.indices.count(i =>
            a(cl.clu(stream.src(i))) != a(cl.clu(stream.dst(i)))).toDouble / stream.numEdges
        }
        println(f"ablation k=$kk clugp=${rf(ClugpConfig())}%.3f " +
          f"scrub=$rfScrubbed%.3f " +
          f"noSplit=${rf(ClugpConfig(splitting = false))}%.3f " +
          f"greedyGame=${rf(ClugpConfig(gameMode = GreedyPlacement))}%.3f " +
          f"partCutSplit=${partCut(true)}%.3f partCutNoSplit=${partCut(false)}%.3f")
      }

      val cl = StreamingClustering.cluster(stream, vMax, splitting = true)
      val cg = ClusterGraph.build(stream, cl)
      for ((label, mode) <- Seq[(String, GameMode)](
             ("seq", SequentialGame), ("par8x6400", ParallelGame(6400, 8)),
             ("greedy", GreedyPlacement));
           init <- Seq[InitStrategy](RangeInit, RandomInit);
           w <- Seq(0.1, 0.5, 0.9)) {
        val lambda = cg.lambdaMax(k) * (w / (1.0 - w))
        val placed = mode match {
          case SequentialGame     => ClusterPartitioning.game(cg, k, lambda, init = init)
          case ParallelGame(b, t) => ClusterPartitioning.parallelGame(cg, k, lambda, b, t, init = init)
          case GreedyPlacement    => ClusterPartitioning.greedy(cg, k)
        }
        val part = PartitionTransformation.transform(stream, cl, placed.assignment, k, 1.0)
        val q = Metrics.evaluate(stream, part, k)
        println(f"game=$label%-10s init=$init%-10s w=$w rf=${q.replicationFactor}%.3f " +
          f"bal=${q.relativeBalance}%.3f rounds=${placed.rounds} moves=${placed.moves}")
      }
    } finally spark.stop()
  }
}
