package repro.core

import org.apache.spark.{HashPartitioner, Partitioner}
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.core.SparkCorrection.SparkUpdateStats

import scala.collection.mutable.ArrayBuilder
import scala.util.control.NonFatal

/** Distributed rSLPA label propagation — Algorithm 1 as keyed-RDD message
  * passing.
  *
  * Every pick is a deterministic function of `(seed, vertex, t)`
  * ([[Picks.pickIdx]]), so each vertex computes all T of its `(src, pos)`
  * picks locally, with no communication. The labels then follow from the
  * picks alone: `l_i^t = l_{src}^{pos}` with `pos < t` and `l_i^0 = i`, so
  * `l_i^t` is the vertex where the `(src, pos)` chain starting at `(i, t)`
  * reaches position 0. [[resolve]] finds every chain end by pointer
  * doubling, `max(1, ⌈log2 T⌉)` rounds of O(|V|·T) messages pipelined in
  * one Spark job, instead of T request/serve/append barriers. The vertex
  * state is hash-partitioned once and never moves. The resulting
  * [[RVState]] is bit-identical to [[LocalRSLPA.propagate]] under the same
  * seed — tested.
  */
object SparkRSLPA {

  /** Distributed per-vertex state: sorted neighbors, label memory, and the
    * `(src, pos)` of every pick (`srcs(0)` is the vertex itself).
    */
  final case class RVState(nbrs: Array[Long], labels: Array[Long],
                           srcs: Array[Long], poss: Array[Int]) extends Serializable

  /** The state of one partition as columns: the vertex `ids`, sorted; row
    * r's sorted neighbors `nbrs(nbrOff(r) until nbrOff(r + 1))`; and the
    * pick and label of `(ids(r), t)` at slot `r·(T+1)+t` of `srcs`, `poss`
    * and `labels` (`labels` is empty when there are none yet).
    */
  private[core] final class Block(val T: Int, val ids: Array[Long], val nbrOff: Array[Int],
                                  val nbrs: Array[Long], val srcs: Array[Long], val poss: Array[Int],
                                  val labels: Array[Long]) extends Serializable {
    def row(v: Long): Int = java.util.Arrays.binarySearch(ids, v)

    def records: Iterator[(Long, RVState)] = ids.indices.iterator.map { r =>
      val (a, b) = (r * (T + 1), (r + 1) * (T + 1))
      (ids(r), RVState(java.util.Arrays.copyOfRange(nbrs, nbrOff(r), nbrOff(r + 1)),
        java.util.Arrays.copyOfRange(labels, a, b),
        java.util.Arrays.copyOfRange(srcs, a, b), java.util.Arrays.copyOfRange(poss, a, b)))
    }
  }

  private[core] object Block {
    /** One partition's records as a [[Block]]; their labels are kept only
      * if every record has a memory. A record whose picks are not T+1 long,
      * or whose labels are neither empty nor T+1 long, is rejected, naming
      * its vertex.
      */
    def apply(records: Iterator[(Long, RVState)], T: Int): Block = {
      val rows = records.toArray.sortBy(_._1)
      val w = T + 1
      require(rows.length.toLong * w <= Int.MaxValue, s"${rows.length} vertices × ${w} slots overflow one block")
      rows.foreach { case (i, st) =>
        require(st.srcs.length == w && st.poss.length == w,
          s"vertex $i has ${st.srcs.length} srcs and ${st.poss.length} poss, not T+1 = $w")
        require(st.labels.isEmpty || st.labels.length == w,
          s"vertex $i has a label memory of length ${st.labels.length}, not T+1 = $w")
      }
      val nbrOff = rows.scanLeft(0)(_ + _._2.nbrs.length)
      val nbrs = new Array[Long](nbrOff.last)
      val srcs = new Array[Long](rows.length * w); val poss = new Array[Int](rows.length * w)
      val labels = if (rows.forall(_._2.labels.length == w)) new Array[Long](rows.length * w) else Array.emptyLongArray
      rows.indices.foreach { r =>
        val st = rows(r)._2
        System.arraycopy(st.nbrs, 0, nbrs, nbrOff(r), st.nbrs.length)
        System.arraycopy(st.srcs, 0, srcs, r * w, w)
        System.arraycopy(st.poss, 0, poss, r * w, w)
        if (labels.nonEmpty) System.arraycopy(st.labels, 0, labels, r * w, w)
      }
      new Block(T, rows.map(_._1), nbrOff, nbrs, srcs, poss, labels)
    }
  }

  /** Routes a message keyed by its destination partition's index. */
  private[core] final case class ToPartition(numPartitions: Int) extends Partitioner {
    def getPartition(key: Any): Int = key.asInstanceOf[Int]
  }

  /** A [[Block]] during round k of [[resolve]]: slot x's chain has reached
    * `(ptr(x), at(x))`, and `at(x) == 0` means `ptr(x)` is its label. Slot
    * `askSlot(j)` of partition `askFrom(j)` asks for the pointer of local
    * slot `askAt(j)`. `served` is the last round that had an ask to serve;
    * `repicked` rides along to the stats.
    */
  private final class Chains(val b: Block, val ptr: Array[Long], val at: Array[Int],
                             val askFrom: Array[Int], val askSlot: Array[Int], val askAt: Array[Int],
                             val served: Int, val repicked: Long) extends Serializable

  /** One round's message from one partition to another, as columns.
    * Answers: the receiver's slot `ansSlot(k)` now points at
    * `(ansPtr(k), ansAt(k))`. Asks: slot `askSlot(k)` of partition
    * `askFrom(k)` asks for the pointer of `(askTgt(k), askAt(k))`, a
    * vertex of the receiver.
    */
  private final case class Msg(ansSlot: Array[Int], ansPtr: Array[Long], ansAt: Array[Int],
                               askFrom: Array[Int], askSlot: Array[Int], askTgt: Array[Long], askAt: Array[Int])

  /** One partition's [[Msg]]s of a round, at most one per destination. */
  private final class Outbox(part: Partitioner) {
    private final class Cols {
      val ansSlot = new ArrayBuilder.ofInt; val ansPtr = new ArrayBuilder.ofLong; val ansAt = new ArrayBuilder.ofInt
      val askFrom = new ArrayBuilder.ofInt; val askSlot = new ArrayBuilder.ofInt
      val askTgt = new ArrayBuilder.ofLong; val askAt = new ArrayBuilder.ofInt
    }
    private val to = new Array[Cols](part.numPartitions)
    private def box(p: Int): Cols = { if (to(p) == null) to(p) = new Cols; to(p) }

    def answer(p: Int, slot: Int, s: Long, at: Int): Unit = {
      val c = box(p); c.ansSlot += slot; c.ansPtr += s; c.ansAt += at
    }
    def ask(from: Int, slot: Int, s: Long, at: Int): Unit = {
      val c = box(part.getPartition(s)); c.askFrom += from; c.askSlot += slot; c.askTgt += s; c.askAt += at
    }
    def messages: Iterator[(Int, Msg)] = to.indices.iterator.filter(to(_) != null).map { p =>
      val c = to(p)
      (p, Msg(c.ansSlot.result(), c.ansPtr.result(), c.ansAt.result(),
        c.askFrom.result(), c.askSlot.result(), c.askTgt.result(), c.askAt.result()))
    }
  }

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
    * `(srcs, poss)` chain from `(i, t)`, and the number of doubling rounds
    * that had a chain to extend. `picks` must be partitioned by `part`;
    * its labels are ignored. See [[resolveBlocks]].
    */
  def resolve(picks: RDD[(Long, RVState)], T: Int,
              part: HashPartitioner): (RDD[(Long, RVState)], Int) = {
    require(picks.partitioner.contains(part), s"resolve: picks must be partitioned by $part, not ${picks.partitioner}")
    val blocks = picks.mapPartitions(it => Iterator((Block(it, T), 0L)), preservesPartitioning = true)
    val (result, stats) = resolveBlocks(blocks, T, part)
    (result, stats.rounds)
  }

  /** Chain resolution over one [[Block]] per partition of `part`, each with
    * a count of repicked positions. Pointer doubling, pipelined: round k
    * is one shuffle with at most one message per pair of partitions, which
    * carries the answers to the receiver's asks of round k−1 and the asks
    * those answers forward to the next target, so every round serves the
    * asks the one before it produced. All `max(1, ⌈log2 T⌉)` rounds, the
    * last answers, the check that every chain reached position 0 and the
    * stats run in one Spark job; a chain that does not fails with its
    * vertex and position. Each round's blocks are persisted for the next
    * one and released after the job; only the resolved blocks stay,
    * persisted and lineage-truncated, and the result is a record view over
    * them. The stats count repicked positions, labels that differ from the
    * blocks' labels (if they have any) and rounds that served an ask.
    */
  private[core] def resolveBlocks(blocks: RDD[(Block, Long)], T: Int,
                                  part: HashPartitioner): (RDD[(Long, RVState)], SparkUpdateStats) = {
    val last = maxRounds(T)
    val toPart = ToPartition(part.numPartitions)
    def sent(c: RDD[Chains], k: Int): RDD[(Int, Msg)] =
      c.mapPartitionsWithIndex((p, cs) => cs.flatMap(serve(p, _, k, last, part))).partitionBy(toPart)
    val rounds = (1 to last).scanLeft(
      blocks.mapPartitions(_.map { case (b, r) => start(b, r) }, preservesPartitioning = true)
        .persist(StorageLevel.MEMORY_AND_DISK)
    ) { (c, k) =>
      c.zipPartitions(sent(c, k - 1), preservesPartitioning = true)((cs, ms) => cs.map(receive(_, ms, k)))
        .persist(StorageLevel.MEMORY_AND_DISK)
    }
    val done = rounds.last.zipPartitions(sent(rounds.last, last), preservesPartitioning = true)(
      (cs, ms) => cs.map(c => finish(receive(c, ms, last + 1)))
    ).persist(StorageLevel.MEMORY_AND_DISK)
    done.localCheckpoint()
    val parts =
      try done.map(_._2).collect()
      catch { case NonFatal(e) => done.unpersist(blocking = false); throw e }
      finally rounds.foreach(_.unpersist(blocking = false))
    parts.flatMap(_.open).headOption.foreach { case (i, t, s, p) =>
      done.unpersist(blocking = false)
      throw new IllegalStateException(
        s"resolve: chain from ($i,$t) unresolved after $last rounds, at ($s,$p); picks need pos < t")
    }
    val result = done.mapPartitions(_.flatMap(_._1.records), preservesPartitioning = true)
    (result, SparkUpdateStats(parts.map(_.repicked).sum, parts.map(_.corrected).sum,
      parts.map(_.served).foldLeft(0)(math.max)))
  }

  /** One partition's share of the stats, and its first unresolved chain
    * `(i, t, s, p)` if any.
    */
  private final case class Done(served: Int, repicked: Long, corrected: Long,
                                open: Option[(Long, Int, Long, Int)])

  /** Round 0: every slot points at its pick; position 0 at its vertex. */
  private def start(b: Block, repicked: Long): Chains = {
    val w = b.T + 1
    val ptr = b.srcs.clone(); val at = b.poss.clone()
    b.ids.indices.foreach { r => ptr(r * w) = b.ids(r); at(r * w) = 0 }
    new Chains(b, ptr, at, Array.emptyIntArray, Array.emptyIntArray, Array.emptyIntArray, 0, repicked)
  }

  /** Round k's messages from partition `self`. Round 0 asks each open
    * slot's target; later rounds answer every ask with the pointer asked
    * for and, before the last round, forward it to that pointer's target.
    */
  private def serve(self: Int, c: Chains, k: Int, last: Int, part: Partitioner): Iterator[(Int, Msg)] = {
    val out = new Outbox(part)
    if (k == 0) {
      var x = 0
      while (x < c.at.length) {
        if (c.at(x) > 0) out.ask(self, x, c.ptr(x), c.at(x))
        x += 1
      }
    } else {
      var j = 0
      while (j < c.askAt.length) {
        val s = c.ptr(c.askAt(j)); val p = c.at(c.askAt(j))
        out.answer(c.askFrom(j), c.askSlot(j), s, p)
        if (p > 0 && k < last) out.ask(c.askFrom(j), c.askSlot(j), s, p)
        j += 1
      }
    }
    out.messages
  }

  /** Round k's chains: the answers in `msgs` applied to `c`'s pointers, and
    * the asks in `msgs` found in this partition to be served.
    */
  private def receive(c: Chains, msgs: Iterator[(Int, Msg)], k: Int): Chains = {
    val w = c.b.T + 1
    val ptr = c.ptr.clone(); val at = c.at.clone()
    val from = new ArrayBuilder.ofInt; val slot = new ArrayBuilder.ofInt; val asked = new ArrayBuilder.ofInt
    msgs.foreach { case (_, m) =>
      var j = 0
      while (j < m.ansSlot.length) { ptr(m.ansSlot(j)) = m.ansPtr(j); at(m.ansSlot(j)) = m.ansAt(j); j += 1 }
      j = 0
      while (j < m.askTgt.length) {
        val r = c.b.row(m.askTgt(j))
        if (r < 0) throw new IllegalArgumentException(
          s"resolve: vertex ${m.askTgt(j)} is picked as a source but is not in the state")
        from += m.askFrom(j); slot += m.askSlot(j); asked += r * w + m.askAt(j)
        j += 1
      }
    }
    val askAt = asked.result()
    new Chains(c.b, ptr, at, from.result(), slot.result(), askAt,
      if (askAt.nonEmpty) k else c.served, c.repicked)
  }

  /** The resolved block and this partition's [[Done]]. */
  private def finish(c: Chains): (Block, Done) = {
    val b = c.b; val w = b.T + 1
    val open = c.at.indexWhere(_ > 0)
    val corrected = if (b.labels.isEmpty) 0L else c.ptr.indices.count(x => c.ptr(x) != b.labels(x)).toLong
    (new Block(b.T, b.ids, b.nbrOff, b.nbrs, b.srcs, b.poss, c.ptr),
      Done(c.served, c.repicked, corrected,
        if (open < 0) None else Some((b.ids(open / w), open % w, c.ptr(open), c.at(open)))))
  }

  /** Full propagation from scratch: picks, then [[resolve]]. */
  def propagate(adj: RDD[(Long, Array[Long])], T: Int, seed: Long,
                numPartitions: Int = 0): RDD[(Long, RVState)] = {
    val parts = if (numPartitions > 0) numPartitions else adj.sparkContext.defaultParallelism
    val part = new HashPartitioner(parts)
    resolve(picks(adj, T, seed, part), T, part)._1
  }
}
