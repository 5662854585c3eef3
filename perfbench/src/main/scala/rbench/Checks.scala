package rbench

import repro.core.{PostProcess, RslpaState}
import repro.graph.LocalGraph

/** Output checks against the local engines, run outside the timed
  * sections. Each returns the problems found; empty means the Spark output
  * is exactly the local one.
  */
object Checks {

  /** Per-vertex `(labels, srcs, poss)` as collected from a Spark state. */
  type Collected = Map[Long, (Array[Long], Array[Long], Array[Int])]

  /** The Spark state must equal the local state at every `(v, t)`. */
  def state(spark: Collected, local: RslpaState): Seq[String] = {
    val errs = Seq.newBuilder[String]
    if (spark.size != local.n) errs += s"state has ${spark.size} vertices, expected ${local.n}"
    var bad = 0
    for (i <- 0 until local.n) spark.get(i.toLong) match {
      case None => bad += 1
      case Some((labels, srcs, poss)) =>
        val t = (1 to local.T).find { t =>
          labels(t) != local.labels(i)(t) || srcs(t) != local.srcs(i)(t) || poss(t) != local.poss(i)(t)
        }
        if (labels(0) != local.labels(i)(0) || t.isDefined) {
          if (bad == 0) errs += s"first mismatch at vertex $i, position ${t.getOrElse(0)}"
          bad += 1
        }
    }
    if (bad > 0) errs += s"$bad vertices differ from the local engine"
    errs.result()
  }

  /** The Spark cover must equal `PostProcess.extractAt` on the local labels
    * at the thresholds the Spark run chose, and τ2 must be Eq. 2's value.
    */
  def cover(assignments: Array[(Long, Long)], tau1: Double, tau2: Double,
            g: LocalGraph, labels: Array[Array[Long]]): Seq[String] = {
    val w = PostProcess.edgeWeights(g, labels)
    val localTau2 = PostProcess.chooseTau2(g, w)
    val expected = PostProcess.extractAt(g, w, tau1, tau2).map(_.map(_.toLong)).toSet
    val got = assignments.groupBy(_._2).values.map(_.map(_._1).toSet).toSet
    val errs = Seq.newBuilder[String]
    if (localTau2 != tau2) errs += s"tau2 $tau2 differs from the local value $localTau2"
    if (got != expected)
      errs += s"cover differs: ${got.size} communities vs ${expected.size} local " +
        s"(${(got -- expected).size} only in Spark, ${(expected -- got).size} only local)"
    errs.result()
  }

  /** η from the data: `(v, t)` labels that differ between two states. */
  def labelDiffs(before: Collected, after: Collected): Long =
    after.iterator.map { case (v, (la, _, _)) =>
      val lb = before(v)._1
      la.indices.count(t => la(t) != lb(t)).toLong
    }.sum
}
