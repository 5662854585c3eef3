package repro.core

import repro.graph.{ConnectedComponents, LocalGraph}
import repro.metrics.SizeEntropy

import scala.collection.mutable

/** rSLPA post-processing (§III-B of the paper), local engine.
  *
  * Uniform-picking flattens the label distributions, so a community agrees
  * on a *distribution* of labels rather than a single winner. Communities
  * are therefore extracted by:
  *  1. weighting every edge by w_ij = P(l_i = l_j) — the probability a
  *     uniform draw from L_i equals a uniform draw from L_j;
  *  2. τ2 = min_i max_j w_ij (Eq. 2, "no isolated vertex" principle);
  *  3. τ1 ∈ [τ2, max w] maximizing the size entropy of the connected
  *     components of the τ1-filtered graph (Eq. 1, "maximize information"),
  *     read with τ2 from one maximum spanning forest (`thresholds`);
  *  4. communities = components with ≥ 2 vertices; an isolated vertex
  *     joins the community of every non-isolated neighbor with w ≥ τ2 —
  *     the mechanism that produces *overlap*.
  */
object PostProcess {

  /** Per-vertex label histogram. */
  def labelCounts(mem: Array[Long]): mutable.HashMap[Long, Int] = {
    val m = mutable.HashMap.empty[Long, Int]
    var i = 0
    while (i < mem.length) { m.update(mem(i), m.getOrElse(mem(i), 0) + 1); i += 1 }
    m
  }

  /** Similarity of two memories: P(uniform draw from a == uniform draw from b). */
  def similarity(a: Array[Long], b: Array[Long]): Double = {
    val (small, large) =
      if (a.length <= b.length) (labelCounts(a), labelCounts(b))
      else (labelCounts(b), labelCounts(a))
    var s = 0L
    small.foreach { case (l, c) => s += c.toLong * large.getOrElse(l, 0) }
    s.toDouble / (a.length.toLong * b.length)
  }

  /** Weight of every edge of `g` (canonical u < v keys). */
  def edgeWeights(g: LocalGraph, labels: Array[Array[Long]]): Map[(Int, Int), Double] = {
    val counts = Array.tabulate(g.n)(i => labelCounts(labels(i)))
    val len = labels.headOption.map(_.length.toLong).getOrElse(1L)
    g.edges.iterator.map { case (u, v) =>
      var s = 0L
      val (small, large) =
        if (counts(u).size <= counts(v).size) (counts(u), counts(v)) else (counts(v), counts(u))
      small.foreach { case (l, c) => s += c.toLong * large.getOrElse(l, 0) }
      (u, v) -> s.toDouble / (len * len)
    }.toMap
  }

  /** τ2 = min over non-isolated vertices of the max incident weight (Eq. 2). */
  def chooseTau2(g: LocalGraph, w: Map[(Int, Int), Double]): Double = {
    val best = Array.fill(g.n)(Double.NaN)
    w.foreach { case ((u, v), x) =>
      if (best(u).isNaN || x > best(u)) best(u) = x
      if (best(v).isNaN || x > best(v)) best(v) = x
    }
    val vals = best.filterNot(_.isNaN)
    if (vals.isEmpty) 0.0 else vals.min
  }

  /** Components (≥ 2 vertices) of the graph restricted to edges with w ≥ τ1. */
  def componentsAt(g: LocalGraph, w: Map[(Int, Int), Double], tau1: Double): Vector[Set[Int]] = {
    val kept = w.iterator.collect { case (e, x) if x >= tau1 => e }.toSeq
    val comp = ConnectedComponents.local(g.n, kept)
    comp.zipWithIndex
      .groupBy(_._1).valuesIterator
      .map(_.map(_._2).toSet)
      .filter(_.size >= 2)
      .toVector
  }

  /** A maximum spanning forest of the weighted edges `(u, v, w)`, by
    * Kruskal. For every τ, the forest edges with w ≥ τ connect exactly the
    * components of all edges with w ≥ τ, so one forest answers every
    * threshold probe. A forest of the union of forests of edge subsets is a
    * forest of all edges — the filtering of Lattanzi et al. (SPAA 2011) —
    * which is how the Spark engine builds it.
    */
  def spanningForest(edges: Iterator[(Long, Long, Double)]): Array[(Long, Long, Double)] = {
    val uf = new ConnectedComponents.UnionFind
    edges.toArray.sortBy(e => -e._3).filter { case (u, v, _) => uf.union(u, v) }
  }

  /** `(τ2, τ1)` from a maximum spanning forest of a graph on `n` vertices.
    *
    * τ2 (Eq. 2): the first edge Kruskal meets at a vertex is one of its
    * heaviest and never closes a cycle, so every vertex keeps an incident
    * forest edge of its maximum weight.
    *
    * τ1 (Eq. 1) = argmax of community-size entropy over a grid in
    * [τ2, max w], lowest τ on ties. The paper enumerates with a small fixed
    * interval (0.001); our memories are longer (T+1 = 201 labels), which
    * compresses all weights into a narrow band near 0, so a fixed absolute
    * step would skip the whole range — the step is 1/60 of the weight range
    * instead. One sweep from high τ to low merges the forest edges.
    */
  def thresholds(forest: Array[(Long, Long, Double)], n: Int): (Double, Double) = {
    if (forest.isEmpty) return (0.0, 0.0)
    val heaviest = mutable.LongMap.empty[Double]
    forest.foreach { case (u, v, x) =>
      heaviest(u) = math.max(heaviest.getOrElse(u, x), x)
      heaviest(v) = math.max(heaviest.getOrElse(v, x), x)
    }
    val tau2 = heaviest.values.min
    val edges = forest.sortBy(e => -e._3)
    val maxW = edges(0)._3
    val eff = math.max((maxW - tau2) / 60, 1e-9)
    val grid = Iterator.iterate(tau2)(_ + eff).takeWhile(_ <= maxW + 1e-12).toArray
    val uf = new ConnectedComponents.UnionFind
    var next = 0
    val entropy = grid.reverse.map { tau =>
      while (next < edges.length && edges(next)._3 >= tau) {
        uf.union(edges(next)._1, edges(next)._2); next += 1
      }
      // Sorted, so the score is a function of the sizes alone and both
      // engines sum it in the same order.
      SizeEntropy.of(uf.componentSizes.toSeq.sorted, n)
    }.reverse
    var tau1 = tau2; var bestEnt = -1.0
    grid.indices.foreach { k =>
      if (entropy(k) > bestEnt + 1e-12) { bestEnt = entropy(k); tau1 = grid(k) }
    }
    (tau2, tau1)
  }

  /** Steps 3–4 for *given* thresholds. */
  def extractAt(g: LocalGraph, w: Map[(Int, Int), Double],
                tau1: Double, tau2: Double): Vector[Set[Int]] = {
    val comms = componentsAt(g, w, tau1)
    val inComm = Array.fill(g.n)(-1)
    comms.zipWithIndex.foreach { case (c, ci) => c.foreach(v => inComm(v) = ci) }
    val extra = Array.fill(comms.size)(mutable.HashSet.empty[Int])
    for (i <- 0 until g.n if inComm(i) < 0; j <- g.adj(i) if inComm(j) >= 0) {
      val e = (math.min(i, j), math.max(i, j))
      if (w.getOrElse(e, 0.0) >= tau2) extra(inComm(j)) += i
    }
    comms.zipWithIndex.map { case (c, ci) => c ++ extra(ci) }
  }

  /** The complete §III-B pipeline on a finished label propagation. */
  def extract(g: LocalGraph, labels: Array[Array[Long]]): Vector[Set[Int]] = {
    val w = edgeWeights(g, labels)
    val forest = spanningForest(w.iterator.map { case ((u, v), x) => (u.toLong, v.toLong, x) })
    val (tau2, tau1) = thresholds(forest, g.n)
    extractAt(g, w, tau1, tau2)
  }
}
