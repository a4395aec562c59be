package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Blocks.writeColumns
import repro.partitioners.{PartitionAssignment, StreamingPartitioner}

/** How pass 2 maps clusters to partitions. */
sealed trait GameMode
/** Paper §V-D: consecutive-id batches played by a thread pool
  * ([[ClusterPartitioning.parallelGame]]). One batch on one thread
  * (`ParallelGame(Int.MaxValue, 1)`) is the sequential game over all
  * clusters. */
final case class ParallelGame(batchSize: Int = 6400, threads: Int = 8) extends GameMode
/** CLUGP-G ablation: big-cluster-to-small-partition greedy, no game. */
case object GreedyPlacement extends GameMode

/** CLUGP configuration (defaults = paper §VI-A).
  *
  * @param tau        imbalance factor τ ≥ 1 of pass 3
  * @param splitting  enable the splitting operation of pass 1
  *                   (`false` = the CLUGP-S ablation)
  * @param gameMode   pass-2 strategy
  * @param weight     relative weight w ∈ [0, 1) of load balancing vs
  *                   edge-cutting (Fig. 11(b)); 0.5 = equal importance =
  *                   λ at λ_max, implemented as λ = λ_max · w/(1−w)
  * @param vMaxFactor maximum cluster volume as a multiple of |E|/k, finite
  *                   and > 0
  * @param init       initial strategy profile of the game
  * @param seed       seed of the game's random initial strategies
  */
final case class ClugpConfig(
    tau: Double = 1.0,
    splitting: Boolean = true,
    gameMode: GameMode = ParallelGame(),
    weight: Double = 0.5,
    vMaxFactor: Double = 1.0,
    init: InitStrategy = RangeInit,
    seed: Long = 17) {
  // w = 1 makes λ infinite, which puts every cluster on partition 0; w
  // outside [0, 1) makes λ negative; vMax would clamp a factor ≤ 0 to 2;
  // pass 3 rejects τ < 1 only after passes 1 and 2. NaN fails each check.
  require(weight >= 0 && weight < 1, s"weight must be in [0, 1), got $weight")
  require(vMaxFactor > 0 && vMaxFactor < Double.PositiveInfinity,
    s"vMaxFactor must be finite and > 0, got $vMaxFactor")
  require(tau >= 1, s"imbalance factor tau must be >= 1, got $tau")

  /** Maximum cluster volume V_max of `numEdges` edges into k partitions:
    * vMaxFactor·|E|/k, at least 2. */
  def vMax(numEdges: Long, k: Int): Long = math.max(2L, (vMaxFactor * numEdges / k).toLong)
  /** Weight λ of the game's load term: λ_max·w/(1−w). */
  def lambda(lambdaMax: Double): Double = lambdaMax * (weight / (1.0 - weight))
}

/** One CLUGP run, pass by pass (§III): what each pass produced, and the
  * wall time of each pass alone, in milliseconds.
  *
  * @param clustering   pass 1's clusters
  * @param clusterGraph the cluster multigraph pass 2 plays on
  * @param placed       pass 2's cluster → partition map, rounds and moves
  * @param part         pass 3's partition id per edge, parallel to the stream
  * @param spaceBytes   bytes of state the run held, as in [[PartitionAssignment]]
  * @param pass1Ms      pass 1, the streaming clustering
  * @param cgraphMs     the cluster-graph build
  * @param gameMs       pass 2 alone: the game, or CLUGP-G's greedy placement
  * @param pass3Ms      pass 3, the partition transformation
  */
final case class ClugpRun(
    clustering: ClusteringResult, clusterGraph: ClusterGraph, placed: ClusterPartitioningResult,
    part: Array[Int], spaceBytes: Long,
    pass1Ms: Long, cgraphMs: Long, gameMs: Long, pass3Ms: Long)

/** The paper's contribution: CLUstering-based restreaming Graph
  * Partitioning — three passes over the edge stream (cluster, play the
  * partitioning game, transform), §III.
  */
final class Clugp(cfg: ClugpConfig = ClugpConfig()) extends StreamingPartitioner {
  override def name: String = cfg.gameMode match {
    case GreedyPlacement         => "CLUGP-G"
    case _ if !cfg.splitting     => "CLUGP-S"
    case _                       => "CLUGP"
  }
  override def preferredOrder: String = "bfs"

  override protected def assign(stream: EdgeStream, k: Int): (Array[Int], Long) = {
    val run = Clugp.passes(stream, k, cfg)
    (run.part, run.spaceBytes)
  }
}

object Clugp {

  /** Convenience single-node run with paper defaults. */
  def run(stream: EdgeStream, k: Int, cfg: ClugpConfig = ClugpConfig()): PartitionAssignment =
    new Clugp(cfg).partition(stream, k)

  /** The three passes over `stream`, each timed on its own. Pass 2 and
    * pass 3 reject a `k` below 1. */
  def passes(stream: EdgeStream, k: Int, cfg: ClugpConfig = ClugpConfig()): ClugpRun = {
    def clock[A](pass: => A): (A, Long) = {
      val t0 = System.nanoTime()
      (pass, (System.nanoTime() - t0) / 1000000)
    }
    val (clustering, pass1Ms) = clock(
      StreamingClustering.cluster(stream, cfg.vMax(stream.numEdges, k), cfg.splitting))
    val (cg, cgraphMs) = clock(ClusterGraph.build(stream, clustering))
    val (placed, gameMs) = clock(cfg.gameMode match {
      case ParallelGame(b, t) =>
        ClusterPartitioning.parallelGame(cg, k, cfg.lambda(cg.lambdaMax(k)), b, t, cfg.seed, init = cfg.init)
      case GreedyPlacement => ClusterPartitioning.greedy(cg, k)
    })
    val (part, pass3Ms) = clock(
      PartitionTransformation.transform(stream, clustering, placed.assignment, k, cfg.tau))
    // space: clu + deg arrays (the paper's O(2|V|)) + divided flags +
    // cluster volumes + game tables
    val space = 8L * stream.numVertices + stream.numVertices +
      8L * clustering.numClusters + 4L * clustering.numClusters + 8L * k
    ClugpRun(clustering, cg, placed, part, space, pass1Ms, cgraphMs, gameMs, pass3Ms)
  }

  /** Distributed mode (paper §III-C last ¶): each distributed node runs
    * the three passes over its slice of the edge stream, and the final
    * partitioning is the union of the per-node results.
    *
    * Implemented at the RDD layer: [[EdgeStream.slices]] reads, sorts,
    * merges and relabels as [[EdgeStream.fromDF]] does, into `numSlices`
    * contiguous `(src, id)` slices in stream order, the same on every call;
    * each slice runs the full local pipeline against the same k logical
    * partitions, and the per-edge assignments are unioned.
    *
    * @param edges DataFrame `(src, dst, id)` from
    *              [[repro.SynthData.webGraph]]
    * @return DataFrame `(id, src, dst, part)`, as [[Metrics.assignmentDF]]
    * @throws IllegalArgumentException if `k` or `numSlices` is below 1, or
    *         a `src`, `dst` or `id` is null
    */
  def partitionDistributed(spark: SparkSession, edges: DataFrame, k: Int,
                           cfg: ClugpConfig = ClugpConfig(),
                           numSlices: Int = 8): DataFrame = {
    require(k >= 1, s"number of partitions must be >= 1, got $k")
    require(numSlices >= 1, s"number of slices must be >= 1, got $numSlices")
    val blocks = EdgeStream.slices(edges, numSlices).map { case (run, local) =>
      Seq(run.id, run.src, run.dst, passes(local, k, cfg).part)
    }
    writeColumns(spark, blocks, Metrics.AssignmentSchema)
  }
}
