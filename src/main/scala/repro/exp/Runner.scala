package repro.exp

import repro.core._
import repro.partitioners._

/** One partitioning run's measurements — a row of the experiment tables. */
final case class RunResult(
    dataset: String, algo: String, k: Int,
    quality: PartitionQuality, timeMs: Long, spaceBytes: Long) {
  def rf: Double = quality.replicationFactor
  def balance: Double = quality.relativeBalance
  def mirrors: Long = quality.numReplicas
  def partitionSizes: Array[Long] = quality.partitionSizes
  def row: Seq[String] = Seq(dataset, algo, k.toString, f"$rf%.3f",
    f"$balance%.3f", timeMs.toString, spaceBytes.toString)
}

object RunResult {
  /** Column names of [[RunResult.row]]. */
  val header: Seq[String] = Seq("dataset", "algo", "k", "rf", "balance", "time_ms", "space_bytes")
}

/** Runs the paper's six partitioners under §VI-A's protocol: each
  * algorithm gets its best stream order (BFS for CLUGP/Mint, random for
  * the rest) and default parameters. */
object Runner {

  /** The paper's six partitioners at their default parameters, CLUGP's
    * game on `gameThreads` threads. */
  def allAlgorithms(gameThreads: Int = 8): Seq[StreamingPartitioner] = Seq(
    new HashingPartitioner,
    new DbhPartitioner,
    new MintPartitioner(),
    new GreedyPartitioner,
    new HdrfPartitioner(),
    new Clugp(ClugpConfig(gameMode = ParallelGame(threads = gameThreads))),
  )

  /** CLUGP and its two ablations (Fig. 9): CLUGP-S without the
    * splitting operation, CLUGP-G with greedy placement instead of the game. */
  def ablation: Seq[Clugp] = Seq(
    new Clugp(),
    new Clugp(ClugpConfig(splitting = false)),
    new Clugp(ClugpConfig(gameMode = GreedyPlacement)),
  )

  /** Seed of the random stream order, the same for every algorithm that
    * prefers it. */
  val ShuffleSeed = 99L

  /** Run `algo` on `stream`, in generator id order, with its preferred order. */
  def run(dataset: String, stream: EdgeStream, algo: StreamingPartitioner, k: Int): RunResult = {
    val s = if (algo.preferredOrder == "bfs") stream else stream.shuffled(ShuffleSeed)
    val a = algo.partition(s, k)
    RunResult(dataset, algo.name, k, Metrics.evaluate(s, a.part, k), a.timeMs, a.spaceBytes)
  }

  /** Render an aligned text table (what each bench prints). */
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val w = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(w).map { case (c, n) => c.padTo(n, ' ') }.mkString("  ")
    (fmt(header) +: rows.map(fmt)).mkString("\n")
  }
}
