package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PostProcess
import repro.util.SplitMix64

class ConnectedComponentsSpec extends AnyFunSuite {

  /** Brute-force reference: BFS flood fill. */
  private def bfs(n: Int, edges: Seq[(Int, Int)]): Array[Int] = {
    val adj = Array.fill(n)(List.empty[Int])
    edges.foreach { case (u, v) => adj(u) ::= v; adj(v) ::= u }
    val comp = Array.fill(n)(-1)
    for (s <- 0 until n if comp(s) == -1) {
      comp(s) = s
      var frontier = List(s)
      while (frontier.nonEmpty) {
        val next = frontier.flatMap(adj).filter(comp(_) == -1)
        next.foreach(comp(_) = s)
        frontier = next.distinct
      }
    }
    comp
  }

  test("local: empty graph yields singletons") {
    val c = ConnectedComponents.local(4, Nil)
    assert(c.toSeq == Seq(0, 1, 2, 3))
  }

  test("local: one edge merges two vertices") {
    val c = ConnectedComponents.local(3, Seq((1, 2)))
    assert(c(1) == c(2) && c(0) != c(1))
  }

  test("local: chain is one component rooted at min id") {
    val c = ConnectedComponents.local(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    assert(c.forall(_ == 0))
  }

  test("local: two cliques stay separate") {
    val c = ConnectedComponents.local(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert(c.take(3).forall(_ == 0) && c.drop(3).forall(_ == 3))
  }

  for (seed <- 0 until 5) {
    test(s"local matches BFS on random graph (seed=$seed)") {
      val rng = new SplitMix64(seed)
      val n = 60
      val edges = (1 to 80).map(_ => (rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      val a = ConnectedComponents.local(n, edges)
      val b = bfs(n, edges)
      // Same partition: equal labels iff same component.
      for (u <- 0 until n; v <- u + 1 until n)
        assert((a(u) == a(v)) == (b(u) == b(v)), s"($u,$v) disagree")
    }
  }

  /** Random weighted graph; weights come from five values, so ties occur. */
  private def weighted(seed: Long): (Int, Seq[(Long, Long, Double)]) = {
    val rng = new SplitMix64(seed)
    val n = 60
    val edges = (1 to 120).map(_ => (rng.nextInt(n).toLong, rng.nextInt(n).toLong, rng.nextInt(5) / 4.0))
      .filter(e => e._1 != e._2)
    (n, edges)
  }

  /** Same partition of `0 until n` from two edge sets, at every τ where the
    * partition of all edges can change (each distinct weight, so every
    * grid τ of `PostProcess.thresholds` as well).
    */
  private def assertSameComponents(n: Int, all: Seq[(Long, Long, Double)],
                                   forest: Seq[(Long, Long, Double)]): Unit = {
    def at(es: Seq[(Long, Long, Double)], tau: Double) =
      ConnectedComponents.local(n, es.collect { case (u, v, x) if x >= tau => (u.toInt, v.toInt) })
    for (tau <- all.map(_._3).distinct)
      assert(at(all, tau).toSeq == at(forest, tau).toSeq, s"components differ at tau=$tau")
  }

  for (seed <- 20 until 23) {
    test(s"spanning forest keeps the components at every threshold (seed=$seed)") {
      val (n, edges) = weighted(seed)
      val forest = PostProcess.spanningForest(edges.iterator)
      assert(forest.length < n)
      assertSameComponents(n, edges, forest.toSeq)
    }

    test(s"forest merged from per-chunk forests keeps the components (seed=$seed)") {
      val (n, edges) = weighted(seed)
      val merged = edges.grouped(17).map(c => PostProcess.spanningForest(c.iterator))
        .reduce((a, b) => PostProcess.spanningForest(a.iterator ++ b.iterator))
      assertSameComponents(n, edges, merged.toSeq)
    }
  }
}
