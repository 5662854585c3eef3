package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.dynamic.EditBatch
import repro.graph.GraphGen

/** The stats of [[LocalIncremental.update]] counted against the data: the
  * labels before and after the update.
  */
class LocalIncrementalStatsSpec extends AnyFunSuite {

  private lazy val g0 = GraphGen.webGraphLocal(7, 400, seed = 50)._2

  /** The `(v, t)` slots whose label differs between `a` and `b`. */
  private def diffs(a: RslpaState, b: RslpaState): Seq[(Int, Int)] =
    for (i <- 0 until a.n; t <- 0 to a.T if a.labels(i)(t) != b.labels(i)(t)) yield (i, t)

  for (s <- 1L to 6L) {
    test(s"corrected equals the label diffs, rounds their highest position (seed=$s)") {
      val st = LocalRSLPA.propagate(g0, 15, s)
      val before = st.copyState()
      val batch = EditBatch.halfAndHalf(g0, 100, s * 13)
      val g1 = g0.edited(batch.insertions, batch.deletions)
      val stats = LocalIncremental.update(g0, g1, st, s, epoch = 1)
      val d = diffs(before, st)
      assert(stats.corrected == d.size, s"corrected ${stats.corrected}, but ${d.size} labels differ")
      assert(stats.rounds == d.map(_._2).max)
      val repicked = (0 until st.n).map(i => (1 to 15).count(t =>
        st.srcs(i)(t) != before.srcs(i)(t) || st.poss(i)(t) != before.poss(i)(t))).sum
      assert(stats.repicked == repicked)
      assert(stats.touched >= stats.repicked && stats.touched >= stats.corrected)
    }
  }
}
