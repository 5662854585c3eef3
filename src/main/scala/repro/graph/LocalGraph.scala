package repro.graph

import scala.collection.mutable

/** Immutable undirected graph with vertices `0 until n`, stored as sorted
  * adjacency arrays.
  *
  * This is the substrate for the *local* engines (quality sweeps run at the
  * paper's full parameter scale on the driver) and the reference the Spark
  * engines are tested against. Self-loops and duplicate edges are removed
  * at construction; neighbor arrays are sorted so that every random pick
  * indexed by a deterministic RNG is reproducible across engines.
  */
final class LocalGraph private (val n: Int, val adj: Array[Array[Int]]) {

  /** Degree of vertex `i`. */
  def degree(i: Int): Int = adj(i).length

  /** Number of undirected edges. */
  lazy val numEdges: Long = adj.map(_.length.toLong).sum / 2

  /** Canonical (u < v) edge list, sorted. */
  def edges: IndexedSeq[(Int, Int)] =
    (0 until n).flatMap(u => adj(u).iterator.filter(_ > u).map(v => (u, v)))

  /** True iff `(u, v)` is an edge (binary search on the sorted array). */
  def hasEdge(u: Int, v: Int): Boolean =
    u != v && java.util.Arrays.binarySearch(adj(u), v) >= 0

  /** New graph with `deletions` removed and `insertions` added.
    * Deleting an absent edge (out-of-range endpoints included) and
    * inserting a present edge or a self-loop change nothing (idempotent);
    * an inserted edge with an endpoint outside `[0, n)` is rejected.
    */
  def edited(insertions: Seq[(Int, Int)], deletions: Seq[(Int, Int)]): LocalGraph = {
    val del = deletions.iterator
      .flatMap { case (u, v) => Seq((u, v), (v, u)) }
      .toSet
    val added = Array.fill(n)(List.empty[Int])
    insertions.foreach { case (u, v) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"inserted edge ($u,$v) out of range [0,$n)")
      if (u != v) { added(u) ::= v; added(v) ::= u }
    }
    val next = Array.tabulate(n) { u =>
      (adj(u).iterator.filter(v => !del((u, v))) ++ added(u)).toArray.distinct.sorted
    }
    new LocalGraph(n, next)
  }
}

object LocalGraph {

  /** Build from an edge list; ids must be in `[0, n)`. */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): LocalGraph = {
    val sets = Array.fill(n)(mutable.SortedSet.empty[Int])
    edges.foreach { case (u, v) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
      if (u != v) { sets(u) += v; sets(v) += u }
    }
    new LocalGraph(n, sets.map(_.toArray))
  }
}
