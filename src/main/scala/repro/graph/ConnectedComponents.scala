package repro.graph

import scala.collection.mutable

/** Connected components by union–find.
  *
  * The paper's post-processing finds communities as connected components of
  * the similarity-filtered graph. Both engines do this on the driver over a
  * maximum spanning forest (see `PostProcess.spanningForest`), which has at
  * most |V|−1 edges, so one union–find serves the local engine, the forest
  * construction and the τ1 sweep.
  */
object ConnectedComponents {

  /** Union–find over `Long` vertex ids; an id never seen is a singleton.
    * The root of a component is always its minimum id, so `find` is the
    * component id. Sizes are kept only for components of ≥ 2 vertices.
    */
  final class UnionFind {
    private val parent = mutable.LongMap.empty[Long]
    private val sizes = mutable.LongMap.empty[Int]

    def find(x0: Long): Long = {
      var x = x0
      var p = parent.getOrElse(x, x)
      while (p != x) { // path halving
        val gp = parent.getOrElse(p, p)
        parent(x) = gp
        x = gp
        p = parent.getOrElse(x, x)
      }
      x
    }

    /** Joins the components of `a` and `b`; false if they were one already. */
    def union(a: Long, b: Long): Boolean = {
      val ra = find(a); val rb = find(b)
      if (ra == rb) return false
      val (lo, hi) = if (ra < rb) (ra, rb) else (rb, ra)
      parent(hi) = lo
      sizes(lo) = sizes.getOrElse(ra, 1) + sizes.getOrElse(rb, 1)
      sizes -= hi
      true
    }

    /** Sizes of the components with at least two vertices. */
    def componentSizes: Iterable[Int] = sizes.values
  }

  /** Component id (minimum vertex id) of every vertex in `0 until n`. */
  def local(n: Int, edges: Iterable[(Int, Int)]): Array[Int] = {
    val uf = new UnionFind
    edges.foreach { case (u, v) => uf.union(u, v) }
    Array.tabulate(n)(v => uf.find(v).toInt)
  }
}
