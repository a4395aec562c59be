package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so that
  * counters read after a Spark action include that action's job, stage and
  * task events. `waitUntilEmpty` is Spark-internal, hence this package. */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
