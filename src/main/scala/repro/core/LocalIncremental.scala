package repro.core

import java.util.BitSet

import repro.graph.LocalGraph

/** Outcome of one incremental update: counts used by the complexity
  * benches (η of §IV-D).
  *
  * @param repicked  labels whose (src, pos) was re-picked (Categories 2/3)
  * @param corrected labels whose final value differs from the value before
  *                  the update — the paper's η, exact
  * @param touched   labels the sweep re-derived: the repicked slots and
  *                  every slot whose source's label changed
  * @param rounds    the highest position whose label changed (0 if none)
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
  * Phase 2 — subsequent updates (§IV-B): instead of pushing each changed
  * label along the receiver records R, [[LocalRSLPA.sweep]] pulls: in
  * ascending position order it re-derives every repicked slot and every
  * slot whose source slot changed earlier in the pass. A change at
  * position t can only trigger changes at positions > t, so each label
  * settles once at the unique fixpoint (l_i^t = l_{src}^{pos} for all t),
  * and R is never built.
  *
  * The state is mutated in place; `seed`/`epoch` determinize the re-picks
  * (a fresh `epoch` per batch keeps successive batches independent).
  */
object LocalIncremental {

  /** Apply the edit batch: update `st` in place to the distributionally
    * correct state for `newG`.
    */
  def update(oldG: LocalGraph, newG: LocalGraph, st: RslpaState,
             seed: Long, epoch: Long): UpdateStats = {
    require(oldG.n == newG.n && st.n == newG.n, "vertex sets must match")
    val n = st.n; val T = st.T
    var repicked = 0L
    val dirty = Array.fill(T + 1)(new BitSet(n))

    // Phase 1: adjacent edge changes.
    var i = 0
    while (i < n) {
      val oldAdj = oldG.adj(i); val newAdj = newG.adj(i)
      if (!newAdj.sameElements(oldAdj)) {
        val diff = Picks.NbrDiff(oldAdj.map(_.toLong), newAdj.map(_.toLong))
        var t = 1
        while (t <= T) {
          Picks.repick(diff, i.toLong, t, st.srcs(i)(t).toLong, seed, epoch).foreach { case (s, pos2) =>
            st.srcs(i)(t) = s.toInt; st.poss(i)(t) = pos2
            repicked += 1
            dirty(t).set(i)
          }
          t += 1
        }
      }
      i += 1
    }

    // Phase 2: the labels downstream of the repicks.
    LocalRSLPA.sweep(st, dirty).copy(repicked = repicked)
  }
}
