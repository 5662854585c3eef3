package repro.core

import java.util.BitSet

import repro.graph.LocalGraph

/** Reference implementation of rSLPA's randomized label propagation
  * (Algorithm 1) on a [[LocalGraph]].
  *
  * Per iteration `t`, every vertex uniformly picks a neighbor `src` and a
  * position `pos < t`, and appends `l_src^pos` to its own memory. By
  * Theorems 2/3 this samples each label with probability proportional to
  * its frequency in the union of the neighbors' memories — the "smoothed"
  * replacement for SLPA's plurality vote. Only one label per *vertex* is
  * fetched per iteration (vs one per *edge* in SLPA), the paper's
  * O(|V|)-per-iteration communication argument.
  *
  * The `(src, pos)` picks are kept in the returned [[RslpaState]] — the
  * bookkeeping Algorithm 2 needs. The labels follow from the picks by
  * [[sweep]], the local engine's one label primitive, which
  * [[LocalIncremental]] runs after its repicks.
  */
object LocalRSLPA {

  /** The deterministic pick for vertex `i` at iteration `t` (delegates to
    * [[Picks.pickIdx]], shared with the Spark engine so both produce
    * identical sequences). Degree-0 vertices self-pick their initial label.
    */
  def pick(adj: Array[Int], i: Int, t: Int, seed: Long): (Int, Int) = {
    val (idx, pos) = Picks.pickIdx(adj.length, i.toLong, t, seed)
    if (idx < 0) (i, 0) else (adj(idx), pos)
  }

  /** Run `T` iterations: draw every pick, then derive every label. */
  def propagate(g: LocalGraph, T: Int, seed: Long): RslpaState = {
    val n = g.n
    val labels = Array.tabulate(n)(i => { val a = new Array[Long](T + 1); a(0) = i.toLong; a })
    val srcs = Array.fill(n)(Array.fill(T + 1)(-1))
    val poss = Array.fill(n)(Array.fill(T + 1)(-1))
    for (i <- 0 until n; t <- 1 to T) {
      val (src, pos) = pick(g.adj(i), i, t, seed)
      srcs(i)(t) = src; poss(i)(t) = pos
    }
    val st = new RslpaState(n, T, labels, srcs, poss)
    sweep(st, Array.fill(T + 1) { val all = new BitSet(n); all.set(0, n); all })
    st
  }

  /** Labels from picks, in place: one pass over t = 1..T and i = 0..n−1
    * sets `labels(i)(t) = labels(srcs(i)(t))(poss(i)(t))` for every slot
    * with `i` in `dirty(t)` and every slot whose source slot changed earlier
    * in the pass. A source's position is below t, so it is final when read
    * and each label settles once, with no receiver records. Returns the
    * stats with `repicked` 0.
    */
  private[core] def sweep(st: RslpaState, dirty: Array[BitSet]): UpdateStats = {
    val changed = Array.fill(st.T + 1)(new BitSet(st.n))
    var corrected = 0L; var touched = 0L; var rounds = 0
    var t = 1
    while (t <= st.T) {
      var i = 0
      while (i < st.n) {
        val s = st.srcs(i)(t); val p = st.poss(i)(t)
        if (dirty(t).get(i) || changed(p).get(s)) {
          touched += 1
          val l = st.labels(s)(p)
          if (st.labels(i)(t) != l) {
            st.labels(i)(t) = l
            changed(t).set(i)
            corrected += 1
            rounds = t
          }
        }
        i += 1
      }
      t += 1
    }
    UpdateStats(0L, corrected, touched, rounds)
  }

  /** Full pipeline: propagate then extract communities via the paper's
    * similarity post-processing (§III-B).
    */
  def detect(g: LocalGraph, T: Int, seed: Long): Vector[Set[Int]] =
    PostProcess.extract(g, propagate(g, T, seed).labels)
}
