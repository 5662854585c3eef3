package org.apache.spark

/** Reaches the listener bus, which is private to Spark, so the benchmark
  * can wait until its listener has seen every event of a finished job.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
