package repro.core

import repro.graph.LocalGraph

import scala.collection.mutable

/** Outcome of one incremental update: counts used by the complexity
  * benches (η of §IV-D).
  *
  * @param repicked  labels whose (src, pos) was re-picked (Categories 2/3)
  * @param corrected labels whose *value* changed (repick or downstream
  *                  correction) — the paper's η
  * @param rounds    correction-propagation rounds until quiescence
  */
final case class UpdateStats(repicked: Long, corrected: Long, touched: Long, rounds: Int)

/** Incremental updating of an rSLPA propagation state after a batch of
  * edge insertions/deletions (Algorithm 2, "Correction Propagation").
  *
  * Phase 1 — adjacent edge changes (§IV-A): classify every vertex by how
  * its neighborhood changed and keep every pick that can still be regarded
  * as uniform on the new graph:
  *  - Category 1 (unchanged neighborhood): keep everything;
  *  - Category 2 (only lost neighbors): re-pick only picks whose source
  *    edge was deleted (Theorem 4);
  *  - Category 3 (gained neighbors): if the source survives, keep it with
  *    probability n_u / (n_u + n_a), otherwise re-pick uniformly among the
  *    *new* neighbors (Theorem 5); if the source was deleted, re-pick
  *    uniformly among all current neighbors.
  *
  * Phase 2 — subsequent updates (§IV-B): changed label values are pushed
  * along the reverse receiver records R, built once from the final picks
  * as a compressed sparse row index; a change at position t can only
  * trigger changes at positions > t, so processing corrections in
  * ascending position order reaches the unique fixpoint
  * (l_i^t = l_{src}^{pos} for all t) in ≤ T steps.
  *
  * The state is mutated in place; `seed`/`epoch` determinize the re-picks
  * (a fresh `epoch` per batch keeps successive batches independent).
  */
object LocalIncremental {

  /** The receiver records R of §IV-B as a compressed sparse row index over
    * packed ids `v·(T+1)+t`: the receivers `(tar, k)` that picked `(j, p)`
    * are `recv(start(id) until start(id + 1))` for `id = j·(T+1)+p`.
    */
  private def receivers(st: RslpaState): (Array[Int], Array[Int]) = {
    val w = st.T + 1
    require(st.n.toLong * w < Int.MaxValue, s"n·(T+1) = ${st.n.toLong * w} does not fit in an Int")
    val start = new Array[Int](st.n * w + 1)
    for (i <- 0 until st.n; t <- 1 to st.T) start(st.srcs(i)(t) * w + st.poss(i)(t) + 1) += 1
    for (id <- 1 to st.n * w) start(id) += start(id - 1)
    val fill = start.clone()
    val recv = new Array[Int](start(st.n * w))
    for (i <- 0 until st.n; t <- 1 to st.T) {
      val id = st.srcs(i)(t) * w + st.poss(i)(t)
      recv(fill(id)) = i * w + t
      fill(id) += 1
    }
    (start, recv)
  }

  /** Apply the edit batch: update `st` in place to the distributionally
    * correct state for `newG`.
    */
  def update(oldG: LocalGraph, newG: LocalGraph, st: RslpaState,
             seed: Long, epoch: Long): UpdateStats = {
    require(oldG.n == newG.n && st.n == newG.n, "vertex sets must match")
    val n = st.n; val T = st.T
    var repicked = 0L
    val touched = mutable.HashSet.empty[(Int, Int)]
    val changed = mutable.HashSet.empty[(Int, Int)]
    // Corrections ordered by ascending position: all upstream positions are
    // final when an entry pops, so each label settles exactly once.
    val queue = mutable.PriorityQueue.empty[(Int, Int)](Ordering.by { case (_, t) => -t })

    def setLabel(i: Int, t: Int, l: Long): Unit = {
      touched += ((i, t))
      if (st.labels(i)(t) != l) {
        st.labels(i)(t) = l
        changed += ((i, t))
        queue.enqueue((i, t))
      }
    }

    // Phase 1: adjacent edge changes.
    var i = 0
    while (i < n) {
      val oldAdj = oldG.adj(i); val newAdj = newG.adj(i)
      if (!newAdj.sameElements(oldAdj)) {
        val diff = Picks.NbrDiff(oldAdj.map(_.toLong), newAdj.map(_.toLong))
        var t = 1
        while (t <= T) {
          Picks.repick(diff, i.toLong, t, st.srcs(i)(t).toLong, seed, epoch) match {
            case Some((s, pos2)) =>
              val src2 = s.toInt
              st.srcs(i)(t) = src2; st.poss(i)(t) = pos2
              repicked += 1
              touched += ((i, t))
              setLabel(i, t, st.labels(src2)(pos2))
            case None => ()
          }
          t += 1
        }
      }
      i += 1
    }

    // Phase 2: correction propagation along R.
    val (start, recv) = receivers(st)
    var rounds = 0
    while (queue.nonEmpty) {
      val (j, p) = queue.dequeue()
      val l = st.labels(j)(p)
      val id = j * (T + 1) + p
      var r = start(id)
      while (r < start(id + 1)) {
        setLabel(recv(r) / (T + 1), recv(r) % (T + 1), l)
        r += 1
      }
      rounds = math.max(rounds, p)
    }
    UpdateStats(repicked, changed.size.toLong, touched.size.toLong, rounds)
  }
}
