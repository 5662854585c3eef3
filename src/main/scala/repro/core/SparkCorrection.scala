package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import repro.core.SparkRSLPA.{Block, RVState}

/** Distributed incremental updating on the keyed-RDD state produced by
  * [[SparkRSLPA]].
  *
  *  1. One pass, zipping each partition's state block with `newAdj`
  *     partitioned alike, applies §IV-A: every vertex with a changed
  *     neighborhood computes its neighbor diff once and evaluates
  *     `NeedRepick` / `Repick` for each of its T picks ([[Picks.repick]],
  *     deterministic, Theorems 4/5), writing the new picks into the block.
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
  * that fixpoint by one ascending sweep. Every chain is re-resolved, so an
  * update costs about as much as a scratch resolution.
  */
object SparkCorrection {

  /** Stats from the data, mirroring [[UpdateStats]]: positions whose
    * `(src, pos)` changed, positions whose label changed (the paper's η),
    * and doubling rounds.
    */
  final case class SparkUpdateStats(repicked: Long, corrected: Long, rounds: Int)

  /** Apply an edit batch. `state0` must be hash-partitioned, as
    * [[SparkRSLPA.propagate]] and this method return it; the result keeps
    * its partitioner. `newAdj` must list the adjacency of every vertex of
    * the state and no other vertex. `state0` is read once and not
    * persisted. Returns the updated state — a record view over resolved
    * blocks that are persisted, materialized and lineage-truncated — and
    * its stats.
    */
  def update(state0: RDD[(Long, RVState)], newAdj: RDD[(Long, Array[Long])],
             T: Int, seed: Long, epoch: Long): (RDD[(Long, RVState)], SparkUpdateStats) = {
    val part = state0.partitioner match {
      case Some(p: HashPartitioner) => p
      case p => throw new IllegalArgumentException(
        s"update: the state has partitioner ${p.getOrElse("none")}; it must be hash-partitioned, as propagate returns it")
    }
    val blocks = state0.zipPartitions(newAdj.partitionBy(part), preservesPartitioning = true) { (sts, adjs) =>
      val b = Block(sts, T)
      val w = T + 1
      val adj = adjs.toArray.sortBy(_._1)
      val k = java.util.Arrays.mismatch(adj.map(_._1), b.ids)
      if (k >= 0) throw new IllegalArgumentException(
        if (k < adj.length && (k == b.ids.length || adj(k)._1 < b.ids(k)))
          s"newAdj lists vertex ${adj(k)._1}, which is not in the state"
        else s"vertex ${b.ids(k)} of the state is missing from newAdj")
      val nbrs = adj.map(_._2.sorted)
      var repicked = 0L
      b.ids.indices.foreach { r =>
        val (lo, hi) = (b.nbrOff(r), b.nbrOff(r + 1))
        if (!java.util.Arrays.equals(b.nbrs, lo, hi, nbrs(r), 0, nbrs(r).length)) {
          val diff = Picks.NbrDiff(java.util.Arrays.copyOfRange(b.nbrs, lo, hi), nbrs(r))
          (1 to T).foreach { t =>
            val x = r * w + t
            Picks.repick(diff, b.ids(r), t, b.srcs(x), seed, epoch).foreach { case (s, p) =>
              if (s != b.srcs(x) || p != b.poss(x)) repicked += 1
              b.srcs(x) = s; b.poss(x) = p
            }
          }
        }
      }
      val nbrOff = nbrs.scanLeft(0)(_ + _.length)
      Iterator((new Block(T, b.ids, nbrOff, nbrs.flatten, b.srcs, b.poss, b.labels), repicked))
    }
    SparkRSLPA.resolveBlocks(blocks, T, part)
  }
}
