package repro.perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler._

/** Spark counters summed over every job, stage and task that has ended.
  * The listener bus delivers events on one thread, so plain fields suffice;
  * readers drain the bus first. */
final class SparkCounters extends SparkListener {
  private val jobStarts = new java.util.concurrent.ConcurrentHashMap[Int, java.lang.Long]()
  @volatile private var jobs, stages, tasks, jobMs = 0L
  @volatile private var shuffleReadBytes, shuffleWriteBytes, shuffleRecords = 0L
  @volatile private var executorCpuNs, executorGcMs = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = jobStarts.put(e.jobId, e.time)

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val t0 = jobStarts.remove(e.jobId)
    jobs += 1
    if (t0 != null) jobMs += e.time - t0
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages += 1

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      executorCpuNs += m.executorCpuTime
      executorGcMs += m.jvmGCTime
    }
  }

  def snapshot(): Map[String, Double] = Map(
    "spark.jobs" -> jobs.toDouble,
    "spark.stages" -> stages.toDouble,
    "spark.tasks" -> tasks.toDouble,
    "spark.job_s" -> jobMs / 1e3,
    "spark.shuffle_read_mb" -> shuffleReadBytes / 1e6,
    "spark.shuffle_write_mb" -> shuffleWriteBytes / 1e6,
    "spark.shuffle_records" -> shuffleRecords.toDouble,
    "spark.executor_cpu_s" -> executorCpuNs / 1e9,
    "spark.executor_gc_s" -> executorGcMs / 1e3)
}

/** JVM counters read through JMX. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val os =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def snapshot(): Map[String, Double] = Map(
    "alloc_mb" -> threads.getCurrentThreadAllocatedBytes / 1e6,
    "cpu_s" -> cpuSeconds(),
    "gc_s" -> gcs.map(g => math.max(0L, g.getCollectionTime)).sum / 1e3)

  /** CPU seconds used by this process, all threads, since it started. */
  def cpuSeconds(): Double = os.getProcessCpuTime / 1e9

  /** Epoch milliseconds at which this JVM started. */
  def startMillis: Long = ManagementFactory.getRuntimeMXBean.getStartTime
}

/** One traced call into a layer. `counters` are deltas over the span:
  * `alloc_mb` (calling thread), `cpu_s` (process), `gc_s` (all collectors)
  * and the `spark.*` counters of the jobs that ran inside it. */
final case class Span(name: String, parent: String, rep: Int,
                      startNs: Long, endNs: Long, counters: Map[String, Double]) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans around calls into the program's layers; spans nest, and a
  * span's parent is the span open when it started. Spans stay in memory
  * until the run writes its report. */
final class Tracer(sc: SparkContext) {
  private val spark = new SparkCounters
  sc.addSparkListener(spark)
  private val open = scala.collection.mutable.Stack[String]()
  val spans = ArrayBuffer[Span]()
  var rep = 0

  private def counters(): Map[String, Double] = {
    PerfbenchBus.drain(sc)
    spark.snapshot() ++ Jvm.snapshot()
  }

  def span[A](name: String)(body: => A): A = {
    val parent = open.headOption.getOrElse("")
    val before = counters()
    open.push(name)
    val t0 = System.nanoTime()
    try {
      val out = body
      val t1 = System.nanoTime()
      val after = counters()
      spans += Span(name, parent, rep, t0, t1, after.map { case (k, v) => k -> (v - before(k)) })
      out
    } finally open.pop()
  }

  /** Median over repetitions of `f` applied to the spans named `name`. */
  def median(name: String, f: Span => Double = _.seconds): Double =
    Stats.median(spans.filter(_.name == name).map(f).toSeq)

  /** Median over repetitions of one counter of the spans named `name`. */
  def counter(name: String, key: String): Double = median(name, _.counters(key))
}
