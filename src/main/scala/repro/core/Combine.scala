package repro.core

import scala.collection.mutable

/** Message combining for the Spark kernels ([[SparkRSLPA.resolve]],
  * [[SparkPostProcess.edgeWeights]]), after Pregel's combiners and GraphX's
  * co-partitioned joins: within one partition, every entry bound for one
  * vertex travels in one message of primitive columns, and the receiving
  * partition, zipped with the co-partitioned vertex state, finds each
  * vertex through an index of its own records instead of a `cogroup`.
  */
private[core] object Combine {

  /** One partition's entries grouped by destination vertex: `(dst, ks)`,
    * where `ks` holds, in order, every position `k` with `dsts(k) == dst`.
    * Callers gather their message columns as `ks.map(column)`.
    */
  def byDst(dsts: Array[Long]): Iterator[(Long, Array[Int])] = {
    val groups = mutable.LongMap.empty[mutable.ArrayBuilder.ofInt]
    var k = 0
    while (k < dsts.length) {
      groups.getOrElseUpdate(dsts(k), new mutable.ArrayBuilder.ofInt) += k
      k += 1
    }
    groups.iterator.map { case (d, ks) => (d, ks.result()) }
  }

  /** One partition's vertex records, indexed by vertex id. */
  def index[V](records: Iterator[(Long, V)]): mutable.LongMap[V] = {
    val m = mutable.LongMap.empty[V]
    records.foreach { case (v, x) => m.update(v, x) }
    m
  }
}
