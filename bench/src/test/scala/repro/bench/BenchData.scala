package repro.bench

import org.apache.spark.sql.SparkSession
import repro.WebGraphs
import repro.core.EdgeStream
import repro.exp.{RunResult, Runner}
import repro.partitioners.StreamingPartitioner

/** Shared state for the bench suites: datasets are generated once, and
  * every (dataset, algorithm, k) partitioning run is cached so F3
  * (quality), F6 (space), F7 (time) and T1 (taxonomy) reuse the same
  * measurements, exactly as one experimental campaign would.
  */
object BenchData {
  /** The paper's sweep of partition counts (Figs. 3, 6, 7, 9). */
  val KSweep = Seq(4, 16, 64, 256)

  private val streams = scala.collection.mutable.Map[String, EdgeStream]()
  private val runs = scala.collection.mutable.Map[(String, String, Int), RunResult]()

  def stream(spark: SparkSession, name: String): EdgeStream = synchronized {
    streams.getOrElseUpdate(name, EdgeStream.fromDF(WebGraphs.byName(name).df(spark)))
  }

  /** Cached partitioning run (one per dataset × algorithm × k). */
  def run(spark: SparkSession, dataset: String, algo: StreamingPartitioner,
          k: Int): RunResult = synchronized {
    runs.getOrElseUpdate((dataset, algo.name, k),
      Runner.run(dataset, stream(spark, dataset), algo, k))
  }

  def runAll(spark: SparkSession, dataset: String, k: Int): Seq[RunResult] =
    Runner.allAlgorithms().map(a => run(spark, dataset, a, k))

  /** Print a bench table between grep-able markers. */
  def emit(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    println(s"==== $title ====")
    println(Runner.table(header, rows))
    println(s"==== end ====")
  }
}
