package repro.jobs

import scala.util.Try

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.desc
import repro.WebGraphs
import repro.WebGraphs.GraphSpec
import repro.core._
import repro.exp.{RunResult, Runner}
import repro.gas.{GasEngine, GasTopology, NetworkModel}
import repro.partitioners.StreamingPartitioner

/** spark-submit entrypoint: generates one synthetic dataset, reads it as
  * the edge stream in generator id order and runs one command on it.
  *
  *  - `partition <dataset> <k[,k…]> [algo|all|ablation]`: the quality and
  *    cost row of each algorithm at each k (Figs. 3, 6, 7), or of CLUGP and
  *    its ablations (Fig. 9);
  *  - `pagerank <dataset> <k> [iters] [rtt_ms]`: CLUGP placement, PageRank
  *    on the GAS engine and the modelled computation/communication split
  *    (Fig. 8);
  *  - `diag <dataset> <k>`: CLUGP dissected pass by pass, for tuning.
  *
  * e.g. `spark-submit --class repro.jobs.Main repro.jar partition uk-lite 64 all`.
  * The Spark master is `SPARK_MASTER` (default `local[*]`). Arguments are
  * checked before Spark starts.
  */
object Main {

  sealed trait Command { def spec: GraphSpec }
  final case class Partition(spec: GraphSpec, ks: Seq[Int], algo: String) extends Command
  final case class PageRank(spec: GraphSpec, k: Int, iters: Int, rttMs: Double) extends Command
  final case class Diag(spec: GraphSpec, k: Int) extends Command

  val Usage: String =
    s"""usage: Main partition <dataset> <k[,k,...]> [algo|all|ablation]
       |       Main pagerank  <dataset> <k> [iters=10] [rtt_ms=10]
       |       Main diag      <dataset> <k>
       |datasets: ${WebGraphs.all.map(_.name).mkString(", ")}
       |algos: ${algoNames.mkString(", ")}""".stripMargin

  private def algoNames: Seq[String] = Runner.allAlgorithms().map(_.name)

  /** The command `args` name, or a message naming the bad argument followed
    * by [[Usage]]. Starts no Spark session. */
  def parse(args: Seq[String]): Either[String, Command] = {
    def dataset(name: String) = Try(WebGraphs.byName(name)).toEither.left.map(_.getMessage)
    def int(what: String, min: Int)(s: String): Either[String, Int] =
      s.trim.toIntOption.filter(_ >= min).toRight(s"$what must be an integer >= $min, got '$s'")
    def ks(list: String): Either[String, Seq[Int]] = {
      val parsed = list.split(",", -1).toSeq.map(int("k", 1))
      parsed.collectFirst { case Left(e) => e }.toLeft(parsed.collect { case Right(k) => k })
    }
    def algo(name: String): Either[String, String] =
      if (name == "all" || name == "ablation" || algoNames.exists(_.equalsIgnoreCase(name)))
        Right(name)
      else Left(s"unknown algo '$name'")
    def rtt(s: String): Either[String, Double] =
      s.toDoubleOption.filter(_ >= 0).toRight(s"rtt_ms must be a number >= 0, got '$s'")

    val parsed = args match {
      case Seq("partition", d, k, rest @ _*) if rest.length <= 1 =>
        for (spec <- dataset(d); k <- ks(k); a <- algo(rest.headOption.getOrElse("all")))
          yield Partition(spec, k, a)
      case Seq("pagerank", d, k, rest @ _*) if rest.length <= 2 =>
        for (spec <- dataset(d); k <- int("k", 1)(k);
             iters <- int("iters", 0)(rest.lift(0).getOrElse("10"));
             rttMs <- rtt(rest.lift(1).getOrElse("10")))
          yield PageRank(spec, k, iters, rttMs)
      case Seq("diag", d, k) =>
        for (spec <- dataset(d); k <- int("k", 1)(k)) yield Diag(spec, k)
      case Seq(cmd, _*) if Seq("partition", "pagerank", "diag").contains(cmd) =>
        Left(s"wrong number of arguments for $cmd")
      case Seq(cmd, _*) => Left(s"unknown command '$cmd'")
      case _ => Left("no command given")
    }
    parsed.left.map(error => s"$error\n$Usage")
  }

  def main(args: Array[String]): Unit = parse(args.toSeq) match {
    case Left(error) =>
      System.err.println(error)
      sys.exit(2)
    case Right(cmd) =>
      val spark = SparkSession.builder().appName(s"clugp-${args.head}")
        .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
      try {
        def stream(spec: GraphSpec) = EdgeStream.fromDF(spec.df(spark))
        cmd match {
          case Partition(spec, ks, algo) => partition(spec, stream(spec), ks, algo)
          case PageRank(spec, k, iters, rttMs) => pageRank(spark, spec, stream(spec), k, iters, rttMs)
          case Diag(spec, k) => diag(spec, EdgeStream.readSorted(spec.df(spark)), k)
        }
      } finally spark.stop()
  }

  private def partition(spec: GraphSpec, stream: EdgeStream, ks: Seq[Int], algo: String): Unit = {
    def algorithms: Seq[StreamingPartitioner] = algo match {
      case "all"      => Runner.allAlgorithms()
      case "ablation" => Runner.ablation
      case name       => Runner.allAlgorithms().filter(_.name.equalsIgnoreCase(name))
    }
    val rows = for (k <- ks; a <- algorithms) yield Runner.run(spec.name, stream, a, k).row
    println(Runner.table(RunResult.header, rows))
  }

  private def pageRank(spark: SparkSession, spec: GraphSpec, stream: EdgeStream,
                       k: Int, iters: Int, rttMs: Double): Unit = {
    val part  = Clugp.run(stream, k).part
    val topo  = GasTopology.of(Metrics.evaluate(stream, part, k))
    val ranks = GasEngine.pageRank(spark, Metrics.assignmentDF(spark, stream, part), iters)
    val top = ranks.orderBy(desc("rank")).limit(5).collect()
    val model = NetworkModel(rttSeconds = rttMs / 1000.0)
    val (comp, comm) = model.split(topo)
    println(s"dataset=${spec.name} k=$k rf=${topo.replicationFactor} mirrors=${topo.mirrors}")
    println(f"modelled per-iteration: compute=$comp%.4fs communication=$comm%.4fs " +
      f"run(${iters}it)=${model.runSeconds(topo, iters)}%.2fs")
    println("top-5 pagerank: " + top.map(r => s"${r.getLong(0)}:${f"${r.getDouble(1)}%.6f"}").mkString(", "))
  }

  /** Cluster counts, cut fractions and host locality per pass, the RF of a
    * clustering without its divided-vertex information, and the game ×
    * init × weight grid, to tune the reproduction's parameters. */
  private def diag(spec: GraphSpec, raw: EdgeStream.SortedRun, k: Int): Unit = {
    val stream = EdgeStream.relabel(raw.src, raw.dst)
    // whether each edge, in stream order, stays within its source's host
    // block of the generator's 1-based ids
    val intraHostEdge = Array.tabulate(raw.size)(e =>
      (raw.src(e) - 1) / spec.hostSize == (raw.dst(e) - 1) / spec.hostSize)
    val intraHost = intraHostEdge.count(identity)
    println(s"graph: |V|=${stream.numVertices} |E|=${stream.numEdges} maxDeg=${stream.degrees.max} " +
      f"intraHost=${intraHost * 100.0 / stream.numEdges}%.1f%%")

    val cfg = ClugpConfig()
    for (split <- Seq(true, false)) {
      val run = Clugp.passes(stream, k, cfg.copy(splitting = split))
      val cl = run.clustering; val cg = run.clusterGraph
      val occ = cl.numOccupiedClusters
      val intraKept = stream.src.indices.count(i =>
        intraHostEdge(i) && cl.clu(stream.src(i)) == cl.clu(stream.dst(i)))
      println(f"split=$split%-5s m=${cl.numClusters} occupied=$occ " +
        f"cut=${cg.totalCutEdges} (${cg.totalCutEdges * 100.0 / stream.numEdges}%.1f%%) " +
        f"divided=${cl.divided.count(identity)} intraHostKept=${intraKept * 100.0 / math.max(1, intraHost)}%.1f%% " +
        f"lambdaMax=${cg.lambdaMax(k)}%.5f")
    }

    // a scrubbed run (split clustering, divided info hidden) attributes
    // quality to the clustering's shape vs the transformation rules; the
    // ablation variants themselves are `partition <dataset> <ks> ablation`
    for (kk <- Seq(16, 64, 256)) {
      def rfScrubbed: Double = {
        val cl0 = StreamingClustering.cluster(stream, cfg.vMax(stream.numEdges, kk), splitting = true)
        val cl = cl0.copy(divided = new Array[Boolean](stream.numVertices),
                          mirrorStart = new Array[Int](stream.numVertices + 1),
                          mirrorIds = Array.emptyIntArray)
        val cg0 = ClusterGraph.build(stream, cl)
        val placed = ClusterPartitioning.parallelGame(cg0, kk, cfg.lambda(cg0.lambdaMax(kk)))
        val part = PartitionTransformation.transform(stream, cl, placed.assignment, kk, 1.0)
        Metrics.evaluate(stream, part, kk).replicationFactor
      }
      def partCut(split: Boolean): Double = {
        val run = Clugp.passes(stream, kk, cfg.copy(splitting = split))
        val cl = run.clustering; val a = run.placed.assignment
        stream.src.indices.count(i =>
          a(cl.clu(stream.src(i))) != a(cl.clu(stream.dst(i)))).toDouble / stream.numEdges
      }
      println(f"k=$kk scrub=$rfScrubbed%.3f " +
        f"partCutSplit=${partCut(true)}%.3f partCutNoSplit=${partCut(false)}%.3f")
    }

    for ((label, mode) <- Seq[(String, GameMode)](
           ("one-batch", ParallelGame(Int.MaxValue, 1)), ("par8x6400", ParallelGame(6400, 8)),
           ("greedy", GreedyPlacement));
         init <- Seq[InitStrategy](RangeInit, RandomInit);
         w <- Seq(0.1, 0.5, 0.9)) {
      val run = Clugp.passes(stream, k, ClugpConfig(gameMode = mode, init = init, weight = w))
      val q = Metrics.evaluate(stream, run.part, k)
      println(f"game=$label%-10s init=$init%-10s w=$w rf=${q.replicationFactor}%.3f " +
        f"bal=${q.relativeBalance}%.3f rounds=${run.placed.rounds} moves=${run.placed.moves}")
    }
  }
}
