package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so that a
  * listener read after a Spark action has seen that action's jobs.
  * `waitUntilEmpty` is Spark-internal, hence this package. */
object SpecBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
