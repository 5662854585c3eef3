package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}
import repro.lfr.{LFRGenerator, LFRParams}
import repro.metrics.SizeEntropy

class PostProcessSpec extends AnyFunSuite {

  test("similarity counts matching draws") {
    // a=(1,1,2), b=(1,2,2): P(equal) = (2*1 + 1*2)/9 = 4/9.
    val s = PostProcess.similarity(Array(1L, 1L, 2L), Array(1L, 2L, 2L))
    assert(math.abs(s - 4.0 / 9) < 1e-12)
  }

  test("similarity of identical memories with one label is 1") {
    assert(PostProcess.similarity(Array(3L, 3L), Array(3L, 3L)) == 1.0)
  }

  test("similarity of disjoint memories is 0") {
    assert(PostProcess.similarity(Array(1L, 2L), Array(3L, 4L)) == 0.0)
  }

  test("similarity is symmetric") {
    val a = Array(1L, 2L, 2L, 5L); val b = Array(2L, 5L, 5L, 7L)
    assert(PostProcess.similarity(a, b) == PostProcess.similarity(b, a))
  }

  test("similarity matches a brute-force double loop") {
    val a = Array(1L, 2L, 3L, 2L, 1L); val b = Array(2L, 2L, 4L, 1L, 9L)
    var hits = 0
    for (x <- a; y <- b) if (x == y) hits += 1
    assert(math.abs(PostProcess.similarity(a, b) - hits / 25.0) < 1e-12)
  }

  test("edgeWeights computes similarity per edge") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    val mems = Array(Array(1L, 1L), Array(1L, 2L), Array(2L, 2L))
    val w = PostProcess.edgeWeights(g, mems)
    assert(math.abs(w((0, 1)) - 0.5) < 1e-12)
    assert(math.abs(w((1, 2)) - 0.5) < 1e-12)
    assert(w.size == 2)
  }

  test("chooseTau2 is the min over vertices of the max incident weight") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val w = Map((0, 1) -> 0.9, (1, 2) -> 0.2, (2, 3) -> 0.6)
    // best: v0=0.9, v1=0.9, v2=0.6, v3=0.6 → min = 0.6
    assert(PostProcess.chooseTau2(g, w) == 0.6)
  }

  test("componentsAt keeps only components with >= 2 vertices") {
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (3, 4)))
    val w = Map((0, 1) -> 0.9, (1, 2) -> 0.1, (3, 4) -> 0.8)
    val comms = PostProcess.componentsAt(g, w, tau1 = 0.5)
    assert(comms.toSet == Set(Set(0, 1), Set(3, 4)))
  }

  private def forestOf(w: Map[(Int, Int), Double]) =
    PostProcess.spanningForest(w.iterator.map { case ((u, v), x) => (u.toLong, v.toLong, x) })

  test("chooseTau1 maximizes size entropy") {
    // Two triangles joined by a weak edge: τ1 above the weak weight yields
    // two communities (entropy ln 2); below it, one giant (entropy ~0).
    // The pendant vertex 6 puts τ2 at 0.1, below the bridge.
    val g = LocalGraph.fromEdges(7,
      Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (5, 6)))
    val w = Map(
      (0, 1) -> 0.9, (1, 2) -> 0.9, (0, 2) -> 0.9,
      (3, 4) -> 0.9, (4, 5) -> 0.9, (3, 5) -> 0.9,
      (2, 3) -> 0.3, (5, 6) -> 0.1)
    val (tau2, tau1) = PostProcess.thresholds(forestOf(w), g.n)
    assert(tau2 == 0.1)
    assert(tau1 > 0.3 && tau1 <= 0.9, s"tau1=$tau1 should exclude the weak bridge")
    val comms = PostProcess.componentsAt(g, w, tau1)
    assert(comms.toSet == Set(Set(0, 1, 2), Set(3, 4, 5)))
  }

  test("thresholds counts edges of weight exactly tau, so tau1 can equal tau2") {
    // At τ2 = 0.5 both {0,1} and {2,3,4} exist (entropy 0.67); above it
    // {0,1} is gone and {2,3} (above 0.6) scores only 0.37.
    val w = Map((0, 1) -> 0.5, (2, 3) -> 0.9, (3, 4) -> 0.6)
    assert(PostProcess.thresholds(forestOf(w), 5) == ((0.5, 0.5)))
  }

  /** Eq. 1 by brute force: components of all edges at every grid point. */
  private def bruteTau1(g: LocalGraph, w: Map[(Int, Int), Double], tau2: Double): Double = {
    val maxW = w.values.max
    val eff = math.max((maxW - tau2) / 60, 1e-9)
    var best = tau2; var bestEnt = -1.0
    var tau = tau2
    while (tau <= maxW + 1e-12) {
      val ent = SizeEntropy.of(PostProcess.componentsAt(g, w, tau).map(_.size), g.n)
      if (ent > bestEnt + 1e-12) { bestEnt = ent; best = tau }
      tau += eff
    }
    best
  }

  private lazy val sweepGraphs: Seq[(String, LocalGraph, Int)] =
    (0 until 3).map(s => (s"web seed=$s", GraphGen.webGraphLocal(7, 600, seed = 300 + s)._2, 20)) ++
      (0 until 2).map(s => (s"LFR seed=$s", LFRGenerator.generate(
        LFRParams(n = 200, avgDeg = 10, maxDeg = 30, mu = 0.2, on = 20, om = 2, seed = 310 + s)).graph, 40))

  test("thresholds: the forest sweep picks the brute-force tau1 and Eq. 2 tau2") {
    for ((name, g, t) <- sweepGraphs) {
      val w = PostProcess.edgeWeights(g, LocalRSLPA.propagate(g, T = t, seed = 320).labels)
      val (tau2, tau1) = PostProcess.thresholds(forestOf(w), g.n)
      assert(tau2 == PostProcess.chooseTau2(g, w), name)
      assert(tau1 == bruteTau1(g, w, tau2), name)
    }
  }

  test("extractAt attaches isolated vertices above tau2 (producing overlap)") {
    // Vertex 2 sits between two strong pairs; its edges are below τ1 but
    // above τ2, so it joins both communities — the overlap mechanism.
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    val w = Map((0, 1) -> 0.9, (1, 2) -> 0.5, (2, 3) -> 0.5, (3, 4) -> 0.9)
    val cover = PostProcess.extractAt(g, w, tau1 = 0.8, tau2 = 0.4)
    assert(cover.toSet == Set(Set(0, 1, 2), Set(2, 3, 4)))
  }

  test("extractAt does not attach below tau2") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    val w = Map((0, 1) -> 0.9, (1, 2) -> 0.1)
    val cover = PostProcess.extractAt(g, w, tau1 = 0.8, tau2 = 0.4)
    assert(cover.toSet == Set(Set(0, 1)))
  }

  test("extractAt keeps disconnected strong components distinct") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    val w = Map((0, 1) -> 0.9, (2, 3) -> 0.9)
    val cover = PostProcess.extractAt(g, w, tau1 = 0.5, tau2 = 0.2)
    assert(cover.toSet == Set(Set(0, 1), Set(2, 3)))
  }

  test("full extract on a two-clique graph finds both cliques") {
    val a = for (i <- 0 until 5; j <- i + 1 until 5) yield (i, j)
    val b = for (i <- 5 until 10; j <- i + 1 until 10) yield (i, j)
    val g = LocalGraph.fromEdges(10, a ++ b :+ (4, 5))
    val st = LocalRSLPA.propagate(g, T = 60, seed = 11)
    val cover = PostProcess.extract(g, st.labels)
    assert(cover.nonEmpty)
    val hasA = cover.exists(c => Set(0, 1, 2, 3).subsetOf(c))
    val hasB = cover.exists(c => Set(6, 7, 8, 9).subsetOf(c))
    assert(hasA && hasB, s"cover=$cover")
  }

  test("labelCounts histogram") {
    val m = PostProcess.labelCounts(Array(1L, 2L, 1L, 1L))
    assert(m(1L) == 3 && m(2L) == 1)
  }
}
