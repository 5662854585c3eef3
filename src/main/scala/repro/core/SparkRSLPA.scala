package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import scala.collection.mutable
import scala.collection.mutable.ArrayBuilder

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

  /** A [[resolve]] message to one vertex, with entries `(vs(k), ts(k), ps(k))`
    * as primitive columns. To a target: requester `vs(k)` asks for the
    * target's pointer at `ps(k)` on behalf of its position `ts(k)`. To a
    * requester: its position `ts(k)` now points at `(vs(k), ps(k))`.
    */
  private final case class Hops(vs: Array[Long], ts: Array[Int], ps: Array[Int])

  /** One partition's entries `(dsts(k), vs(k), ts(k), ps(k))` as one
    * [[Hops]] message per destination.
    */
  private def send(dsts: Array[Long], vs: Array[Long], ts: Array[Int],
                   ps: Array[Int]): Iterator[(Long, Hops)] =
    Combine.byDst(dsts).map { case (d, ks) => (d, Hops(ks.map(vs), ks.map(ts), ks.map(ps))) }

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
    * Each round replaces every unresolved pointer with its target's pointer;
    * requests and answers travel as [[Combine]]d messages, served and
    * applied by zipping them with the co-partitioned chains. `picks` must be
    * partitioned by `part`; its labels are ignored. The result is persisted,
    * materialized and lineage-truncated.
    */
  def resolve(picks: RDD[(Long, RVState)], T: Int,
              part: HashPartitioner): (RDD[(Long, RVState)], Int) = {
    require(picks.partitioner.contains(part), s"resolve: picks must be partitioned by $part, not ${picks.partitioner}")
    // One record per partition holds all of its chains, so that caching a
    // round sizes one object graph instead of one per vertex. The chains
    // keep `part` as their partitioner, and so does the result.
    def materialize(c: RDD[Array[(Long, Chain)]]): Long = {
      c.persist(StorageLevel.MEMORY_AND_DISK)
      c.map(_.iterator.map(_._2.at.count(_ > 0).toLong).sum).fold(0L)(_ + _)
    }
    var chain = picks.mapPartitions(
      it => Iterator(it.map { case (i, st) =>
        val ptr = st.srcs.clone(); ptr(0) = i
        val at = st.poss.clone(); at(0) = 0
        (i, Chain(st.copy(labels = ptr), at))
      }.toArray),
      preservesPartitioning = true
    )
    var open = materialize(chain)
    var rounds = 0
    while (open > 0) {
      if (rounds == maxRounds(T)) {
        val (i, c) = chain.flatMap(_.iterator).filter(_._2.at.exists(_ > 0)).first()
        val t = c.at.indexWhere(_ > 0)
        throw new IllegalStateException(
          s"resolve: chain from ($i,$t) unresolved after $rounds rounds, at (${c.st.labels(t)},${c.at(t)}); picks need pos < t")
      }
      // Every open (i, t) asks its target s for position p, one message per
      // partition and s; s's partition answers with its own pointer at p,
      // one message per partition and requester i.
      val reqs = chain.flatMap { cs =>
        val s = new ArrayBuilder.ofLong; val i = new ArrayBuilder.ofLong
        val t = new ArrayBuilder.ofInt; val p = new ArrayBuilder.ofInt
        cs.foreach { case (v, c) =>
          var k = 1
          while (k <= T) {
            if (c.at(k) > 0) { s += c.st.labels(k); i += v; t += k; p += c.at(k) }
            k += 1
          }
        }
        send(s.result(), i.result(), t.result(), p.result())
      }.partitionBy(part)
      val answers = chain.zipPartitions(reqs) { (cs, rs) =>
        val byId = Combine.index(cs.flatMap(_.iterator))
        val i = new ArrayBuilder.ofLong; val s = new ArrayBuilder.ofLong
        val t = new ArrayBuilder.ofInt; val p = new ArrayBuilder.ofInt
        rs.foreach { case (src, m) =>
          val c = byId.getOrElse(src,
            throw new IllegalArgumentException(s"resolve: vertex $src is picked as a source but is not in the state"))
          var k = 0
          while (k < m.ts.length) {
            i += m.vs(k); s += c.st.labels(m.ps(k)); t += m.ts(k); p += c.at(m.ps(k))
            k += 1
          }
        }
        send(i.result(), s.result(), t.result(), p.result())
      }.partitionBy(part)
      val next = chain.zipPartitions(answers, preservesPartitioning = true) { (cs, as) =>
        val got = mutable.LongMap.empty[List[Hops]]
        as.foreach { case (i, m) => got.update(i, m :: got.getOrElse(i, Nil)) }
        cs.map(_.map { case (i, c) =>
          got.get(i) match {
            case None => (i, c)
            case Some(ms) =>
              val ptr = c.st.labels.clone(); val at = c.at.clone()
              ms.foreach { m =>
                var k = 0
                while (k < m.ts.length) { ptr(m.ts(k)) = m.vs(k); at(m.ts(k)) = m.ps(k); k += 1 }
              }
              (i, Chain(c.st.copy(labels = ptr), at))
          }
        })
      }
      open = materialize(next)
      chain.unpersist(blocking = false)
      chain = next
      rounds += 1
    }
    val result = chain.mapPartitions(_.flatMap(_.iterator.map { case (i, c) => (i, c.st) }), preservesPartitioning = true)
      .persist(StorageLevel.MEMORY_AND_DISK)
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
