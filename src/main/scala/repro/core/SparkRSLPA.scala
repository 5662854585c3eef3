package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

/** Distributed rSLPA label propagation — Algorithm 1 as keyed-RDD message
  * passing.
  *
  * Every pick is a deterministic function of `(seed, vertex, t)`
  * ([[Picks.pickIdx]]), so each vertex computes all T of its `(src, pos)`
  * picks locally, with no communication. The labels then follow from the
  * picks alone: `l_i^t = l_{src}^{pos}` with `pos < t` and `l_i^0 = i`, so
  * `l_i^t` is the vertex where the `(src, pos)` chain starting at `(i, t)`
  * reaches position 0. [[resolve]] finds every chain end by pointer
  * doubling, in at most `max(1, ⌈log2 T⌉)` rounds of O(|V|·T) messages
  * instead of T request/serve/append barriers. The vertex state is
  * hash-partitioned once and never moves. The resulting [[RVState]] is
  * bit-identical to [[LocalRSLPA.propagate]] under the same seed — tested.
  */
object SparkRSLPA {

  /** Distributed per-vertex state: sorted neighbors, label memory, and the
    * `(src, pos)` of every pick (`srcs(0)` is the vertex itself).
    */
  final case class RVState(nbrs: Array[Long], labels: Array[Long],
                           srcs: Array[Long], poss: Array[Int]) extends Serializable

  /** A vertex during [[resolve]]: position `t`'s chain has reached
    * `(st.labels(t), at(t))`; `at(t) == 0` means `st.labels(t)` is the label.
    */
  private final case class Chain(st: RVState, at: Array[Int]) extends Serializable

  /** Doubling rounds that suffice for memories of length T+1: a chain from
    * position t has at most t hops, and round k leaves 2^k hops taken.
    */
  private def maxRounds(T: Int): Int = math.max(1, 32 - Integer.numberOfLeadingZeros(math.max(T, 1) - 1))

  /** Every vertex's Algorithm 1 picks, hash-partitioned by `part`; the
    * labels are left for [[resolve]].
    */
  def picks(adj: RDD[(Long, Array[Long])], T: Int, seed: Long,
            part: HashPartitioner): RDD[(Long, RVState)] =
    adj.partitionBy(part).mapPartitions(
      _.map { case (i, ns) =>
        val nbrs = ns.sorted
        val srcs = new Array[Long](T + 1); srcs(0) = i
        val poss = new Array[Int](T + 1)
        var t = 1
        while (t <= T) {
          val (idx, pos) = Picks.pickIdx(nbrs.length, i, t, seed)
          srcs(t) = if (idx < 0) i else nbrs(idx)
          poss(t) = pos
          t += 1
        }
        (i, RVState(nbrs, Array.emptyLongArray, srcs, poss))
      },
      preservesPartitioning = true
    )

  /** Labels from picks: the state with `labels(t)` set to the end of the
    * `(srcs, poss)` chain from `(i, t)`, and the number of doubling rounds.
    * Each round replaces every unresolved pointer with its target's pointer.
    * `picks` must be partitioned by `part`; its labels are ignored. The
    * result is persisted, materialized and lineage-truncated.
    */
  def resolve(picks: RDD[(Long, RVState)], T: Int,
              part: HashPartitioner): (RDD[(Long, RVState)], Int) = {
    def materialize(c: RDD[(Long, Chain)]): Long = {
      c.persist(StorageLevel.MEMORY_AND_DISK)
      c.map(_._2.at.count(_ > 0).toLong).fold(0L)(_ + _)
    }
    var chain = picks.mapPartitions(
      _.map { case (i, st) =>
        val ptr = st.srcs.clone(); ptr(0) = i
        val at = st.poss.clone(); at(0) = 0
        (i, Chain(st.copy(labels = ptr), at))
      },
      preservesPartitioning = true
    )
    var open = materialize(chain)
    var rounds = 0
    while (open > 0) {
      if (rounds == maxRounds(T)) {
        val (i, c) = chain.filter(_._2.at.exists(_ > 0)).first()
        val t = c.at.indexWhere(_ > 0)
        throw new IllegalStateException(
          s"resolve: chain from ($i,$t) unresolved after $rounds rounds, at (${c.st.labels(t)},${c.at(t)}); picks need pos < t")
      }
      val reqs = chain.flatMap { case (i, c) =>
        (1 to T).iterator.filter(c.at(_) > 0).map(t => (c.st.labels(t), (c.at(t), i, t)))
      }
      val resps = chain.cogroup(reqs, part).flatMap { case (s, (cs, rs)) =>
        val c = cs.headOption.getOrElse(
          throw new IllegalArgumentException(s"resolve: vertex $s is picked as a source but is not in the state"))
        rs.iterator.map { case (p, i, t) => (i, (t, c.st.labels(p), c.at(p))) }
      }
      val next = chain.cogroup(resps, part).mapPartitions(
        _.map { case (i, (cs, rs)) =>
          val c = cs.head
          if (rs.isEmpty) (i, c)
          else {
            val ptr = c.st.labels.clone(); val at = c.at.clone()
            rs.foreach { case (t, s, p) => ptr(t) = s; at(t) = p }
            (i, Chain(c.st.copy(labels = ptr), at))
          }
        },
        preservesPartitioning = true
      )
      open = materialize(next)
      chain.unpersist(blocking = false)
      chain = next
      rounds += 1
    }
    val result = chain.mapValues(_.st).persist(StorageLevel.MEMORY_AND_DISK)
    result.localCheckpoint()
    result.count()
    chain.unpersist(blocking = false)
    (result, rounds)
  }

  /** Full propagation from scratch: picks, then [[resolve]]. */
  def propagate(adj: RDD[(Long, Array[Long])], T: Int, seed: Long,
                numPartitions: Int = 0): RDD[(Long, RVState)] = {
    val parts = if (numPartitions > 0) numPartitions else adj.sparkContext.defaultParallelism
    val part = new HashPartitioner(parts)
    resolve(picks(adj, T, seed, part), T, part)._1
  }
}
