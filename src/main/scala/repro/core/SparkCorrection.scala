package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.core.SparkRSLPA.RVState

/** Distributed incremental updating on the keyed-RDD state produced by
  * [[SparkRSLPA]].
  *
  *  1. One pass, zipping the state with `newAdj` partitioned alike,
  *     applies §IV-A: every vertex with a changed neighborhood computes its
  *     neighbor diff once and evaluates `NeedRepick` / `Repick` for each of
  *     its T picks ([[Picks.repick]], deterministic, Theorems 4/5).
  *  2. The labels are then re-derived from the new picks with the same
  *     chain-resolution primitive as propagation ([[SparkRSLPA.resolve]]).
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
    * of the state and no other vertex. Returns the updated state —
    * persisted, materialized and lineage-truncated — and its stats.
    */
  def update(state0: RDD[(Long, RVState)], newAdj: RDD[(Long, Array[Long])],
             T: Int, seed: Long, epoch: Long,
             numPartitions: Int = 0): (RDD[(Long, RVState)], SparkUpdateStats) = {
    val parts = if (numPartitions > 0) numPartitions else state0.sparkContext.defaultParallelism
    val part = new HashPartitioner(parts)
    val state = (
      if (state0.getStorageLevel == StorageLevel.NONE) state0.persist(StorageLevel.MEMORY_AND_DISK)
      else state0).partitionBy(part)

    val picks = state.zipPartitions(newAdj.partitionBy(part), preservesPartitioning = true) { (sts, adjs) =>
      val adj = Combine.index(adjs)
      val out = sts.map { case (i, st) =>
        val nn = adj.remove(i).getOrElse(
          throw new IllegalArgumentException(s"vertex $i of the state is missing from newAdj")).sorted
        if (java.util.Arrays.equals(st.nbrs, nn)) (i, st)
        else {
          val diff = Picks.NbrDiff(st.nbrs, nn)
          val srcs = st.srcs.clone(); val poss = st.poss.clone()
          var t = 1
          while (t <= T) {
            Picks.repick(diff, i, t, st.srcs(t), seed, epoch).foreach { case (s, p) =>
              srcs(t) = s; poss(t) = p
            }
            t += 1
          }
          (i, RVState(nn, st.labels, srcs, poss))
        }
      }.toArray
      adj.keys.headOption.foreach(i =>
        throw new IllegalArgumentException(s"newAdj lists vertex $i, which is not in the state"))
      out.iterator
    }
    val (result, rounds) = SparkRSLPA.resolve(picks, T, part)

    val (nRepicked, nCorrected) = state.zipPartitions(result) { (as, bs) =>
      val before = Combine.index(as)
      bs.map { case (i, b) =>
        val a = before(i)
        var r = 0L; var c = 0L
        var t = 0
        while (t <= T) {
          if (a.srcs(t) != b.srcs(t) || a.poss(t) != b.poss(t)) r += 1
          if (a.labels(t) != b.labels(t)) c += 1
          t += 1
        }
        (r, c)
      }
    }.fold((0L, 0L)) { case ((r1, c1), (r2, c2)) => (r1 + r2, c1 + c2) }
    (result, SparkUpdateStats(nRepicked, nCorrected, rounds))
  }
}
