package org.apache.spark

/** Runs a block with `sc.defaultParallelism` set to `p`, so a test can pick
  * the number of blocks the GAS engine loads into. Local mode reads
  * `spark.default.parallelism` from the context's own conf on each call,
  * and that conf is Spark-internal, hence this package. */
object SpecConf {
  def withDefaultParallelism[A](sc: SparkContext, p: Int)(body: => A): A = {
    val key = "spark.default.parallelism"
    val before = sc.conf.getOption(key)
    sc.conf.set(key, p.toString)
    try {
      require(sc.defaultParallelism == p, s"defaultParallelism is ${sc.defaultParallelism}, not $p")
      body
    } finally before.fold(sc.conf.remove(key))(sc.conf.set(key, _))
  }
}
