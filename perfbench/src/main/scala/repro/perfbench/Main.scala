package repro.perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.WebGraphs
import repro.WebGraphs.GraphSpec
import repro.core._
import repro.gas.{GasEngine, GasTopology}
import repro.partitioners.PartitionAssignment

/** One workload: a dataset partitioned into `k` parts, then PageRank.
  *
  *  - `uk-k256`: uk-lite at k=256. Pass 2 (the game) dominates the
  *    partitioner and ingest is small, so game and k-dependent work show.
  *  - `it-k64`: it-lite at k=64, the default of the paper's Figs 7 and 10.
  *    Ingest dominates end to end and pass 1 is the largest pass.
  *  - `twitter-k32`: twitter-lite at k=32, a social graph without host
  *    locality. Cluster-graph build and pass 3 dominate, and PageRank is
  *    heavy on shuffle; work that relies on web-graph locality shows its
  *    cost here.
  */
final case class Workload(name: String, spec: GraphSpec, k: Int)

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("uk-k256", WebGraphs.UKLite, 256),
    Workload("it-k64", WebGraphs.ITLite, 64),
    Workload("twitter-k32", WebGraphs.TwitterLite, 32))
}

/** Settings fixed by the benchmark, so that results do not depend on the
  * machine: the leaf-node partition count decides how `spark.range` splits
  * the generator (and so the generated edges), and the shuffle partition
  * count, with adaptive query execution off, fixes every job's task layout
  * instead of leaving it to runtime data sizes. */
object Settings {
  val Master = "local[4]"
  val LeafParallelism = 16
  val ShufflePartitions = 4
  val Game = ParallelGame(threads = 4)
  val Config = ClugpConfig(gameMode = Game)
  /** `PageRankJob`'s default. */
  val PageRankIters = 10
  /** Set-up runs the whole path on this small graph of the same generator,
    * with fewer PageRank iterations (the same queries), so JIT and Spark
    * code generation are warm before timing starts. */
  val WarmupGraph = WebGraphs.Tiny
  val WarmupPageRankIters = 2
  /** Each set-up round starts a fresh SparkSession and runs the whole path
    * once on the warm-up graph. */
  val SetupRounds = 3
  val MinE2eReps = 1
  /** A tail needs ten samples beyond it; 26 samples put it at p61.5. */
  val MinPartitionSamples = 26
  /** Share of the measured time spent on whole-path repetitions; the rest
    * repeats the partitioner alone, for its tail. */
  val E2eShare = 0.6
  /** Untraced/traced partitioner pairs per traced repetition. */
  val TracedPassReps = 5
}

/** Wall-clock and process CPU seconds (all threads) of one operation. */
final case class Cost(wall: Double, cpu: Double) {
  def +(o: Cost): Cost = Cost(wall + o.wall, cpu + o.cpu)
}

/** Costs of one whole-path repetition. */
final case class Rep(ingest: Cost, partition: Cost, pagerank: Cost) {
  def e2e: Cost = ingest + partition + pagerank
}

/** What pass 1 to pass 3 produced when chained as `Clugp.partition` does. */
final case class Chain(clustering: ClusteringResult, cg: ClusterGraph, lambda: Double,
                       placed: ClusterPartitioningResult, part: Array[Int])

/** A metric as reported: value and unit. */
final case class Metric(value: Double, unit: String)

/** Runs one workload, with tracing off (end-to-end metrics) or on
  * (per-layer metrics). Every step calls a module's public entry point;
  * spans are recorded here, around those calls, never inside the program. */
final class Bench(val w: Workload, val seed: Long, workDir: File) {
  import Settings._

  val checker = new Checker
  private var spark: SparkSession = _
  private var tracer: Option[Tracer] = None
  private val setupSamples = ArrayBuffer[Cost]()
  private var setupTotal = 0.0
  /** Sample counts and raw samples, recorded with the environment. */
  private val samples = mutable.LinkedHashMap[String, Any]()

  private def layer[A](name: String)(body: => A): A =
    tracer.fold(body)(_.span(name)(body))

  private def timed[A](body: => A): (A, Cost) = {
    val c0 = Jvm.cpuSeconds()
    val t0 = System.nanoTime()
    val out = body
    (out, Cost((System.nanoTime() - t0) / 1e9, Jvm.cpuSeconds() - c0))
  }

  private def startSession(): Unit = {
    if (spark != null) spark.stop()
    spark = SparkSession.builder.master(Master).appName("clugp-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getPath)
      .config("spark.sql.leafNodeDefaultParallelism", LeafParallelism.toString)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
  }

  def close(): Unit = if (spark != null) spark.stop()

  def spans: Seq[Span] = tracer.fold(Seq.empty[Span])(_.spans.toSeq)

  // --- operations: each is timed, then checked ---------------------------

  /** Operations on one graph. Checks compare against this graph's first
    * dataset fingerprint and assignment hash, and its PageRank reference. */
  final class Graph(val spec: GraphSpec, iters: Int) {
    private var reference: Array[Double] = _
    var fingerprint: Option[Fingerprint] = None

    def ingest(): Option[(EdgeStream, Cost)] =
      checker.attempt("ingest")(timed(layer("ingest")(EdgeStream.fromDF(spec.df(spark))))) {
        case (s, _) =>
          val fp = Fingerprint.of(s)
          if (fingerprint.isEmpty) fingerprint = Some(fp)
          checker.same(s"${spec.name} dataset", fp.toString)
      }

    def partition(s: EdgeStream): Option[(PartitionAssignment, Cost)] =
      checker.attempt("partition")(timed(Clugp.run(s, w.k, Config))) {
        case (a, _) => checkAssignment(s, a.part)
      }

    def checkAssignment(s: EdgeStream, part: Array[Int]): Seq[String] =
      Checks.assignment(part, w.k, s.numEdges, Config.tau) ++
        checker.same(s"${spec.name} assignment", f"${Checks.hash(part)}%016x")

    def pagerank(s: EdgeStream, part: Array[Int]): Option[(Array[Double], Cost)] =
      checker.attempt("pagerank")(timed {
        val assigned = layer("pagerank.assign_df")(Metrics.assignmentDF(spark, s, part))
        layer("pagerank.run")(collectRanks(s, assigned, iters))
      }) { case (r, _) => Checks.ranks(r, referenceOf(s)) }

    /** The exact ranks; every ingest yields the same stream (checked), so
      * the reference is computed once. */
    def referenceOf(s: EdgeStream): Array[Double] = {
      if (reference == null)
        reference = GasEngine.pageRankReference(s.src, s.dst, s.numVertices, iters)
      reference
    }

    /** GraphSpec → EdgeStream → assignment → collected ranks. */
    def e2e(): Option[(EdgeStream, PartitionAssignment, Rep)] = for {
      (s, ti) <- ingest()
      (a, tp) <- partition(s)
      (_, tr) <- pagerank(s, a.part)
    } yield (s, a, Rep(ti, tp, tr))
  }

  private def collectRanks(s: EdgeStream, assigned: DataFrame, iters: Int): Array[Double] = {
    val out = Array.fill(s.numVertices)(Double.NaN)
    GasEngine.pageRank(spark, assigned, iters).collect()
      .foreach(r => out(r.getLong(0).toInt) = r.getDouble(1))
    out
  }

  val graph = new Graph(w.spec.copy(seed = w.spec.seed + 100L * seed), PageRankIters)
  private val warmup = new Graph(WarmupGraph, WarmupPageRankIters)

  /** The three passes chained as `Clugp.partition` chains them, each in
    * its own span. */
  def chain(s: EdgeStream): Chain = layer("clugp") {
    val k = w.k
    val vMax = math.max(2L, (Config.vMaxFactor * s.numEdges / k).toLong)
    val clustering = layer("pass1")(StreamingClustering.cluster(s, vMax, Config.splitting))
    val cg = layer("cgraph")(ClusterGraph.build(s, clustering))
    val lambda = cg.lambdaMax(k) * (Config.weight / (1.0 - Config.weight))
    val placed = layer("game")(ClusterPartitioning.parallelGame(
      cg, k, lambda, Game.batchSize, Game.threads, Config.seed, init = Config.init))
    val part = layer("pass3")(
      PartitionTransformation.transform(s, clustering, placed.assignment, k, Config.tau))
    Chain(clustering, cg, lambda, placed, part)
  }

  // --- runs ---------------------------------------------------------------

  /** Set-up rounds; the first is measured from JVM start. */
  private def setup(): Unit = {
    for (r <- 0 until SetupRounds) {
      val (_, cost) = timed { startSession(); warmup.e2e() }
      setupSamples += (if (r > 0) cost
                       else Cost((System.currentTimeMillis() - Jvm.startMillis) / 1e3, Jvm.cpuSeconds()))
    }
    setupTotal = (System.currentTimeMillis() - Jvm.startMillis) / 1e3
  }

  private def elapsed(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Tracing off: timed repetitions of the whole path, then of the
    * partitioner alone on the last stream. Returns the gated metrics, in
    * process CPU seconds, and the wall-clock medians, which are printed and
    * recorded but not gated: on a shared host they drift with its load. */
  def untraced(seconds: Int): (Seq[(String, Metric)], Seq[(String, Metric)]) = {
    setup()
    val reps = ArrayBuffer[Rep]()
    val partS = ArrayBuffer[Cost]()
    var last: Option[(EdgeStream, PartitionAssignment)] = None
    val t0 = System.nanoTime()
    var tries = 0
    while (tries < MinE2eReps || elapsed(t0) < seconds * E2eShare) {
      tries += 1
      graph.e2e().foreach { case (s, a, rep) => reps += rep; partS += rep.partition; last = Some((s, a)) }
    }
    for ((s, _) <- last) {
      var left = MinPartitionSamples - partS.length
      while (left > 0 || elapsed(t0) < seconds) {
        left -= 1
        graph.partition(s).foreach { case (_, t) => partS += t }
      }
    }
    val q = last.map { case (s, a) => Metrics.evaluate(s, a.part, w.k) }
    def tail(f: Cost => Double) = Stats.tail(partS.map(f).toSeq).getOrElse((Double.NaN, Double.NaN))
    samples ++= Seq("setup" -> setupSamples.length, "e2e" -> reps.length,
      "ingest" -> reps.length, "pagerank" -> reps.length, "partition" -> partS.length,
      "partition_tail_pct" -> tail(_.cpu)._2, "setup_total_s" -> setupTotal,
      "setup_rounds" -> setupSamples.toSeq, "reps" -> reps.toSeq, "partitions" -> partS.toSeq)
    def med(f: Rep => Cost, g: Cost => Double) = Stats.median(reps.map(r => g(f(r))).toSeq)
    val wallClock = Seq(
      "setup_wall_s" -> Metric(Stats.median(setupSamples.map(_.wall).toSeq), "s"),
      "ingest_s" -> Metric(med(_.ingest, _.wall), "s"),
      "partition_s" -> Metric(Stats.median(partS.map(_.wall).toSeq), "s"),
      "partition_tail_s" -> Metric(tail(_.wall)._1, "s"),
      "pagerank_s" -> Metric(med(_.pagerank, _.wall), "s"),
      "e2e_s" -> Metric(med(_.e2e, _.wall), "s"))
    samples += "wall_clock_s" -> wallClock.map { case (n, m) => n -> m.value }.to(mutable.LinkedHashMap)
    (Seq(
      "setup_s" -> Metric(Stats.median(setupSamples.map(_.cpu).toSeq), "s"),
      "ingest_cpu_s" -> Metric(med(_.ingest, _.cpu), "s"),
      "partition_cpu_s" -> Metric(Stats.median(partS.map(_.cpu).toSeq), "s"),
      "partition_tail_cpu_s" -> Metric(tail(_.cpu)._1, "s"),
      "pagerank_cpu_s" -> Metric(med(_.pagerank, _.cpu), "s"),
      "e2e_cpu_s" -> Metric(med(_.e2e, _.cpu), "s"),
      "rf" -> Metric(q.fold(Double.NaN)(_.replicationFactor), "ratio"),
      "balance" -> Metric(q.fold(Double.NaN)(_.relativeBalance), "ratio")), wallClock)
  }

  /** Tracing on: each repetition ingests; then, `TracedPassReps` times,
    * runs `Clugp.partition` untraced (the reference timing and assignment)
    * and chains the passes in spans; then replays the game on one thread,
    * evaluates, and runs PageRank. */
  def traced(seconds: Int): Seq[(String, Metric)] = {
    setup()
    val t = new Tracer(spark.sparkContext)
    tracer = Some(t)
    val partS = ArrayBuffer[Double]()
    val maxErr = ArrayBuffer[Double]()
    var last: Option[(EdgeStream, PartitionAssignment, Chain, PartitionQuality)] = None
    val t0 = System.nanoTime()
    var rep = 0
    while (rep < 1 || elapsed(t0) < seconds) {
      t.rep = rep
      rep += 1
      for ((s, _) <- graph.ingest()) {
        var pair: Option[(PartitionAssignment, Chain)] = None
        for (_ <- 1 to TracedPassReps; (a, tp) <- graph.partition(s);
             c <- checker.attempt("traced partition")(chain(s))(c => graph.checkAssignment(s, c.part))) {
          partS += tp.wall
          pair = Some((a, c))
        }
        for ((a, c) <- pair) {
          checker.attempt("game on one thread")(layer("game_1t")(ClusterPartitioning.parallelGame(
            c.cg, w.k, c.lambda, Game.batchSize, 1, Config.seed, init = Config.init))) { g =>
            if (g.assignment.sameElements(c.placed.assignment)) Nil
            else Seq("one-thread game placed clusters differently")
          }
          val q = layer("evaluate")(Metrics.evaluate(s, c.part, w.k))
          graph.pagerank(s, c.part).foreach { case (r, _) => maxErr += Checks.maxAbsErr(r, graph.referenceOf(s)) }
          last = Some((s, a, c, q))
        }
      }
    }
    samples ++= Seq("setup" -> setupSamples.length, "traced_reps" -> rep,
      "partition" -> partS.length, "setup_rounds" -> setupSamples.toSeq,
      "setup_total_s" -> setupTotal)
    last.fold(Seq.empty[(String, Metric)])(l => layerMetrics(t, partS.toSeq, maxErr.toSeq, l))
  }

  private def layerMetrics(t: Tracer, partS: Seq[Double], maxErr: Seq[Double],
                           last: (EdgeStream, PartitionAssignment, Chain, PartitionQuality))
      : Seq[(String, Metric)] = {
    val (s, a, c, q) = last
    val k = w.k
    def sec(name: String) = Metric(t.median(name), "s")
    def ctr(name: String, key: String, unit: String) = Metric(t.counter(name, key), unit)
    def count(v: Double) = Metric(v, "count")
    val clu = c.clustering
    val occupied = clu.numOccupiedClusters
    val (same, cut, spill) = decisions(s, clu, c.placed.assignment, c.part)
    val passes = Seq("pass1", "cgraph", "game", "pass3").map(t.median(_)).sum
    val topo = GasTopology(k, 0L, 0L, q.numReplicas, q.partitionSizes)
    Seq(
      "ingest.spark_s" -> ctr("ingest", "spark.job_s", "s"),
      "ingest.driver_s" -> Metric(t.median("ingest", sp => sp.seconds - sp.counters("spark.job_s")), "s"),
      "ingest.tasks" -> ctr("ingest", "spark.tasks", "count"),
      "ingest.shuffle_write_mb" -> ctr("ingest", "spark.shuffle_write_mb", "MB"),
      "ingest.executor_cpu_s" -> ctr("ingest", "spark.executor_cpu_s", "s"),
      "ingest.gc_s" -> ctr("ingest", "gc_s", "s"),
      "ingest.edges" -> count(s.numEdges),
      "ingest.vertices" -> count(s.numVertices),
      "pass1_s" -> sec("pass1"),
      "pass1.alloc_mb" -> ctr("pass1", "alloc_mb", "MB"),
      "pass1.gc_s" -> ctr("pass1", "gc_s", "s"),
      "pass1.clusters_allocated" -> count(clu.numClusters),
      "pass1.clusters_occupied" -> count(occupied),
      "pass1.divided" -> count(clu.divided.count(identity)),
      "pass1.splits" -> count(clu.mirrorClusters.valuesIterator.map(_.length).sum),
      "cgraph_s" -> sec("cgraph"),
      "cgraph.alloc_mb" -> ctr("cgraph", "alloc_mb", "MB"),
      "cgraph.gc_s" -> ctr("cgraph", "gc_s", "s"),
      "cgraph.cut_edges" -> count(c.cg.totalCutEdges),
      "cgraph.intra_edges" -> count(c.cg.totalIntraEdges),
      "cgraph.adjacency_entries" -> count(c.cg.neighborIds.map(_.length.toLong).sum),
      "game_s" -> sec("game"),
      "game.cpu_s" -> ctr("game", "cpu_s", "s"),
      "game.gc_s" -> ctr("game", "gc_s", "s"),
      "game.players" -> count(c.cg.numClusters),
      "game.batches" -> count((c.cg.numClusters + Game.batchSize - 1) / Game.batchSize),
      "game.rounds" -> count(c.placed.rounds),
      "game.moves" -> count(c.placed.moves),
      "game.occupied_share" -> Metric(occupied.toDouble / c.cg.numClusters, "ratio"),
      "game_1t_s" -> sec("game_1t"),
      "pass3_s" -> sec("pass3"),
      "pass3.alloc_mb" -> ctr("pass3", "alloc_mb", "MB"),
      "pass3.gc_s" -> ctr("pass3", "gc_s", "s"),
      "pass3.same_part_edges" -> count(same),
      "pass3.cut_edges" -> count(cut),
      "pass3.spill_edges" -> count(spill),
      "evaluate_s" -> sec("evaluate"),
      "evaluate.mirrors" -> count(q.numReplicas),
      "clugp.space_bytes" -> Metric(a.spaceBytes, "bytes"),
      "trace_overhead_s" -> Metric(passes - Stats.median(partS), "s"),
      "pagerank.assign_df_s" -> sec("pagerank.assign_df"),
      "pagerank.run_s" -> sec("pagerank.run"),
      "pagerank.jobs" -> ctr("pagerank.run", "spark.jobs", "count"),
      "pagerank.stages" -> ctr("pagerank.run", "spark.stages", "count"),
      "pagerank.tasks" -> ctr("pagerank.run", "spark.tasks", "count"),
      "pagerank.shuffle_read_mb" -> ctr("pagerank.run", "spark.shuffle_read_mb", "MB"),
      "pagerank.shuffle_write_mb" -> ctr("pagerank.run", "spark.shuffle_write_mb", "MB"),
      "pagerank.shuffle_records" -> ctr("pagerank.run", "spark.shuffle_records", "count"),
      "pagerank.executor_cpu_s" -> ctr("pagerank.run", "spark.executor_cpu_s", "s"),
      "pagerank.gc_s" -> ctr("pagerank.run", "gc_s", "s"),
      "pagerank.max_abs_err" -> Metric(Stats.median(maxErr), "abs"),
      "gas.msgs_per_iter" -> count(topo.messagesPerIteration),
      "gas.max_part_edges" -> count(topo.maxEdges))
  }

  /** How pass 3 placed each edge, derived from its inputs and output: on
    * the partition both endpoints' clusters share, on one endpoint's
    * partition (a cut), or on neither (a spill). */
  private def decisions(s: EdgeStream, clu: ClusteringResult, clusterPart: Array[Int],
                        part: Array[Int]): (Long, Long, Long) = {
    var same, cut, spill = 0L
    var i = 0
    while (i < part.length) {
      val pu = clusterPart(clu.clu(s.src(i))); val pv = clusterPart(clu.clu(s.dst(i)))
      val p = part(i)
      if (pu == pv && p == pu) same += 1
      else if (pu != pv && (p == pu || p == pv)) cut += 1
      else spill += 1
      i += 1
    }
    (same, cut, spill)
  }

  /** The environment and sample counts recorded with every run. */
  def environment(): mutable.LinkedHashMap[String, Any] = {
    val sc = spark.sparkContext
    val spec = graph.spec
    mutable.LinkedHashMap[String, Any](
      "workload" -> w.name, "seed" -> seed, "graph" -> spec.name, "graph_seed" -> spec.seed,
      "k" -> w.k, "dataset" -> graph.fingerprint.map(fp => mutable.LinkedHashMap(
        "vertices" -> fp.vertices, "edges" -> fp.edges, "hash" -> fp.hex)),
      "assignment_hash" -> checker.seen.get(s"${spec.name} assignment").orNull,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "spark_version" -> spark.version, "spark_master" -> sc.master,
      "default_parallelism" -> sc.defaultParallelism,
      "leaf_node_default_parallelism" -> spark.conf.get("spark.sql.leafNodeDefaultParallelism"),
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "game_threads" -> Game.threads, "game_batch" -> Game.batchSize,
      "pagerank_iters" -> PageRankIters,
      "jdk" -> s"${sys.props("java.vendor")} ${sys.props("java.version")}",
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "source_sha" -> sys.props.getOrElse("perfbench.sourceSha", "unknown"),
      "samples" -> samples,
      "attempted" -> checker.attempted, "failed" -> checker.failed,
      "fail_ratio" -> checker.failed.toDouble / math.max(1L, checker.attempted),
      "problems" -> checker.problems.toSeq)
  }
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --work <dir>`. Prints a readable report, then as its last line one JSON
  * object with `correct`, `attempted`, `failed` and `metrics`; the full
  * report (environment, samples, spans) goes to `<work>/reports/`. */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def usage(msg: String): Nothing = {
      System.err.println(s"perfbench: $msg\nusage: --workload <${Workload.all.map(_.name).mkString("|")}> " +
        "--seed <n> --seconds <s> --trace <0|1> --work <dir>")
      sys.exit(2)
    }
    val w = Workload.all.find(_.name == opts.getOrElse("workload", ""))
      .getOrElse(usage(s"unknown workload ${opts.getOrElse("workload", "(none)")}"))
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(usage("--seed needs an integer"))
    val seconds = opts.get("seconds").flatMap(_.toIntOption).filter(_ > 0)
      .getOrElse(usage("--seconds needs a positive integer"))
    val trace = opts.get("trace") match {
      case Some("0") => false
      case Some("1") => true
      case _         => usage("--trace needs 0 or 1")
    }
    val work = new File(opts.getOrElse("work", usage("--work needs a directory")))

    val bench = new Bench(w, seed, work)
    val (metrics, wallClock, env, spans) =
      try {
        val (m, wall) = if (trace) (bench.traced(seconds), Nil) else bench.untraced(seconds)
        (m, wall, bench.environment(), bench.spans)
      } finally bench.close()

    val correct = bench.checker.failed == 0 && metrics.forall(!_._2.value.isNaN)
    val metricsJson = metrics.map { case (n, m) => n -> mutable.LinkedHashMap(
      "value" -> Option.unless(m.value.isNaN)(m.value), "unit" -> m.unit) }.to(mutable.LinkedHashMap)
    val reports = new File(work, "reports")
    reports.mkdirs()
    val out = new PrintWriter(new File(reports, s"${w.name}-seed$seed-trace${if (trace) 1 else 0}.json"))
    try out.println(Json(mutable.LinkedHashMap(
      "environment" -> env,
      "metrics" -> metricsJson,
      "spans" -> spans.map(s => mutable.LinkedHashMap(
        "name" -> s.name, "parent" -> s.parent, "rep" -> s.rep,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs, "counters" -> s.counters)))))
    finally out.close()

    (metrics ++ wallClock).foreach { case (n, m) => println(f"$n%-28s ${m.value}%14.6f ${m.unit}") }
    if (!trace) println(f"${"fail_ratio"}%-28s ${env("fail_ratio")}%14s ratio")
    println("environment " + Json(env))
    println(Json(mutable.LinkedHashMap(
      "correct" -> correct,
      "attempted" -> bench.checker.attempted,
      "failed" -> bench.checker.failed,
      "metrics" -> metricsJson)))
    sys.exit(0)
  }
}
