package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.dynamic.EditBatch

class LocalGraphSpec extends AnyFunSuite {

  private val triangle = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 0)))

  test("adjacency is symmetric and sorted") {
    assert(triangle.adj(0).toSeq == Seq(1, 2))
    assert(triangle.adj(1).toSeq == Seq(0, 2))
    assert(triangle.adj(2).toSeq == Seq(0, 1))
    assert(triangle.adj(3).isEmpty)
  }

  test("self-loops are dropped") {
    val g = LocalGraph.fromEdges(3, Seq((0, 0), (0, 1)))
    assert(g.numEdges == 1)
    assert(g.adj(0).toSeq == Seq(1))
  }

  test("duplicate edges are deduplicated") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 0), (0, 1)))
    assert(g.numEdges == 1)
  }

  test("numEdges counts undirected edges") {
    assert(triangle.numEdges == 3)
  }

  test("edges returns canonical sorted pairs") {
    assert(triangle.edges == Seq((0, 1), (0, 2), (1, 2)))
  }

  test("hasEdge is consistent with adjacency") {
    assert(triangle.hasEdge(0, 1) && triangle.hasEdge(1, 0))
    assert(!triangle.hasEdge(0, 3) && !triangle.hasEdge(0, 0))
  }

  test("degree") {
    assert(triangle.degree(0) == 2 && triangle.degree(3) == 0)
  }

  test("out-of-range edges are rejected") {
    intercept[IllegalArgumentException](LocalGraph.fromEdges(2, Seq((0, 5))))
  }

  test("edited: deletion removes both directions") {
    val g = triangle.edited(Nil, Seq((1, 0)))
    assert(!g.hasEdge(0, 1) && !g.hasEdge(1, 0))
    assert(g.numEdges == 2)
  }

  test("edited: insertion adds both directions") {
    val g = triangle.edited(Seq((0, 3)), Nil)
    assert(g.hasEdge(0, 3) && g.hasEdge(3, 0))
    assert(g.adj(0).toSeq == Seq(1, 2, 3))
  }

  test("edited: self-loop insertions are ignored") {
    val g = triangle.edited(Seq((2, 2)), Nil)
    assert(g.numEdges == 3)
  }

  test("edited: inserting an existing edge is a no-op") {
    val g = triangle.edited(Seq((0, 1)), Nil)
    assert(g.numEdges == 3 && g.adj(0).toSeq == Seq(1, 2))
  }

  test("edited keeps neighbor arrays sorted") {
    val g = LocalGraph.fromEdges(5, Seq((1, 4))).edited(Seq((1, 0), (1, 2)), Nil)
    assert(g.adj(1).toSeq == Seq(0, 2, 4))
  }

  test("edited does not mutate the original") {
    val before = triangle.edges
    triangle.edited(Seq((0, 3)), Seq((0, 1)))
    assert(triangle.edges == before)
  }

  test("edited round-trip restores the original graph") {
    val g2 = triangle.edited(Seq((0, 3)), Seq((1, 2)))
    val g3 = g2.edited(Seq((1, 2)), Seq((0, 3)))
    assert(g3.edges == triangle.edges)
  }

  test("edited matches a graph rebuilt from the edited edge list") {
    val g = GraphGen.webGraphLocal(8, 1500, seed = 5)._2
    val b = EditBatch.halfAndHalf(g, 200, seed = 6)
    val rebuilt = LocalGraph.fromEdges(g.n, (g.edges.toSet -- b.deletions ++ b.insertions).toSeq)
    val got = g.edited(b.insertions, b.deletions)
    assert((0 until g.n).forall(i => got.adj(i).sameElements(rebuilt.adj(i))))
  }
}
