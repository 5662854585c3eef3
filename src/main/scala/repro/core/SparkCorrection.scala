package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import repro.core.SparkRSLPA.RVState

/** Distributed incremental updating on the keyed-RDD state produced by
  * [[SparkRSLPA]].
  *
  *  1. One pass, zipping the state with `newAdj` partitioned alike,
  *     applies §IV-A: every vertex with a changed neighborhood computes its
  *     neighbor diff once and evaluates `NeedRepick` / `Repick` for each of
  *     its T picks ([[Picks.repick]], deterministic, Theorems 4/5). It
  *     writes each partition's new picks and old labels into one column
  *     block.
  *  2. The labels are then re-derived from the new picks with the same
  *     chain-resolution primitive as propagation
  *     ([[SparkRSLPA.resolveBlocks]]); both steps and the stats run in one
  *     Spark job.
  *
  * Step 2 replaces the §IV-B correction cascade over receiver records R:
  * the labels `l_i^t = l_{src}^{pos}` have a unique fixpoint for fixed
  * picks, and resolving it directly takes at most `max(1, ⌈log2 T⌉)`
  * rounds and needs no R. The final state is therefore bit-identical to
  * [[LocalIncremental.update]] under the same `(seed, epoch)`, which reaches
  * that fixpoint by the cascade. Every chain is re-resolved, so an update
  * costs about as much as a scratch resolution.
  */
object SparkCorrection {

  /** Stats from the data, mirroring [[UpdateStats]]: positions whose
    * `(src, pos)` changed, positions whose label changed (the paper's η),
    * and doubling rounds.
    */
  final case class SparkUpdateStats(repicked: Long, corrected: Long, rounds: Int)

  /** Apply an edit batch. `newAdj` must list the adjacency of every vertex
    * of the state and no other vertex. `state0` is read once and not
    * persisted. Returns the updated state — a record view over resolved
    * blocks that are persisted, materialized and lineage-truncated — and
    * its stats.
    */
  def update(state0: RDD[(Long, RVState)], newAdj: RDD[(Long, Array[Long])],
             T: Int, seed: Long, epoch: Long,
             numPartitions: Int = 0): (RDD[(Long, RVState)], SparkUpdateStats) = {
    val parts = if (numPartitions > 0) numPartitions else state0.sparkContext.defaultParallelism
    val part = new HashPartitioner(parts)
    val blocks = state0.partitionBy(part).zipPartitions(newAdj.partitionBy(part), preservesPartitioning = true) {
      (sts, adjs) =>
        val adj = adjs.toArray.sortBy(_._1)
        var a = 0
        var repicked = 0L
        val rows = sts.toArray.sortBy(_._1).map { case (i, st) =>
          if (a < adj.length && adj(a)._1 < i)
            throw new IllegalArgumentException(s"newAdj lists vertex ${adj(a)._1}, which is not in the state")
          if (a == adj.length || adj(a)._1 > i)
            throw new IllegalArgumentException(s"vertex $i of the state is missing from newAdj")
          val nn = adj(a)._2.sorted
          a += 1
          if (java.util.Arrays.equals(st.nbrs, nn)) (i, st)
          else {
            val diff = Picks.NbrDiff(st.nbrs, nn)
            val srcs = st.srcs.clone(); val poss = st.poss.clone()
            var t = 1
            while (t <= T) {
              Picks.repick(diff, i, t, st.srcs(t), seed, epoch).foreach { case (s, p) =>
                srcs(t) = s; poss(t) = p
              }
              if (srcs(t) != st.srcs(t) || poss(t) != st.poss(t)) repicked += 1
              t += 1
            }
            (i, RVState(nn, st.labels, srcs, poss))
          }
        }
        if (a < adj.length)
          throw new IllegalArgumentException(s"newAdj lists vertex ${adj(a)._1}, which is not in the state")
        Iterator((SparkRSLPA.Block(rows.iterator, T), repicked))
    }
    SparkRSLPA.resolveBlocks(blocks, T, part)
  }
}
