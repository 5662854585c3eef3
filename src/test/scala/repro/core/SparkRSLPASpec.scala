package repro.core

import org.apache.spark.{HashPartitioner, SparkException}
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.graph.{GraphGen, GraphOps, LocalGraph}

class SparkRSLPASpec extends AnyFunSuite with SparkSpec {

  private def assertStateMatches(local: RslpaState,
                                 dist: Map[Long, SparkRSLPA.RVState]): Unit = {
    assert(dist.size == local.n)
    for (i <- 0 until local.n) {
      val d = dist(i.toLong)
      assert(d.labels.toSeq == local.labels(i).toSeq, s"labels differ at $i")
      assert(d.srcs.drop(1).map(_.toInt).toSeq == local.srcs(i).drop(1).toSeq, s"srcs differ at $i")
      assert(d.poss.drop(1).toSeq == local.poss(i).drop(1).toSeq, s"poss differ at $i")
    }
  }

  /** Smallest k with 2^k >= T, at least 1: the doubling-round bound. */
  private def roundBound(T: Int): Int = math.max(1, Iterator.iterate(1)(_ * 2).indexWhere(_ >= T))

  /** Picks + resolve on a random power-law graph, checked against the local
    * engine; the round count must stay within the doubling bound.
    */
  private def checkRandomGraph(seed: Long, T: Int): Unit = {
    val g = GraphGen.webGraphLocal(7, 350, seed = seed)._2
    val local = LocalRSLPA.propagate(g, T, seed = seed * 17)
    val part = new HashPartitioner(spark.sparkContext.defaultParallelism)
    val (dist, rounds) = SparkRSLPA.resolve(
      SparkRSLPA.picks(GraphOps.adjacencyRDD(spark.sparkContext, g), T, seed * 17, part), T, part)
    assertStateMatches(local, dist.collect().toMap)
    assert(rounds <= roundBound(T), s"$rounds doubling rounds for T=$T")
  }

  test("spark rSLPA state is bit-identical to local on a small graph") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (2, 3)))
    val local = LocalRSLPA.propagate(g, T = 8, seed = 21)
    val dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(spark.sparkContext, g), 8, 21)
      .collect().toMap
    assertStateMatches(local, dist)
  }

  for (seed <- Seq(1L, 2L)) {
    test(s"spark rSLPA matches local on a random power-law graph (seed=$seed)") {
      checkRandomGraph(seed, T = 10)
    }
  }

  test("spark rSLPA matches local on a random power-law graph with deep chains (T=200)") {
    checkRandomGraph(seed = 3, T = 200)
  }

  test("spark rSLPA handles isolated vertices (self-picks)") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1))) // 2, 3 isolated
    val dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(spark.sparkContext, g), 6, 5)
      .collect().toMap
    assert(dist(2L).labels.forall(_ == 2L))
    assert(dist(3L).labels.forall(_ == 3L))
    assertStateMatches(LocalRSLPA.propagate(g, 6, 5), dist)
  }

  test("resolve fails loudly on a pick chain that never reaches position 0") {
    // Vertices 0 and 1 copy each other's position 1: a cycle, not a chain.
    val picks = spark.sparkContext.parallelize(Seq(
      0L -> SparkRSLPA.RVState(Array(1L), Array.emptyLongArray, Array(0L, 1L), Array(0, 1)),
      1L -> SparkRSLPA.RVState(Array(0L), Array.emptyLongArray, Array(1L, 0L), Array(0, 1))))
    val part = new HashPartitioner(2)
    val e = intercept[IllegalStateException](SparkRSLPA.resolve(picks.partitionBy(part), 1, part))
    assert(e.getMessage.contains("unresolved after 1 rounds"), e.getMessage)
  }

  test("resolve fails loudly on a pick whose source is not in the state") {
    // Vertex 0's position 2 copies position 1 of vertex 5, which has no state.
    val picks = spark.sparkContext.parallelize(Seq(
      0L -> SparkRSLPA.RVState(Array(1L), Array.emptyLongArray, Array(0L, 1L, 5L), Array(0, 0, 1)),
      1L -> SparkRSLPA.RVState(Array(0L), Array.emptyLongArray, Array(1L, 0L, 0L), Array(0, 0, 0))))
    val part = new HashPartitioner(2)
    val e = intercept[SparkException](SparkRSLPA.resolve(picks.partitionBy(part), 2, part))
    assert(e.getMessage.contains("resolve: vertex 5 is picked as a source but is not in the state"), e.getMessage)
  }

  for (parts <- Seq(1, 7)) {
    test(s"spark rSLPA matches local with numPartitions=$parts") {
      val g = GraphGen.webGraphLocal(7, 300, seed = 6)._2
      val dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(spark.sparkContext, g), 12, 61, numPartitions = parts)
      assert(dist.getNumPartitions == parts)
      assertStateMatches(LocalRSLPA.propagate(g, 12, 61), dist.collect().toMap)
    }
  }

  test("spark rSLPA memory lengths are T+1") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    SparkRSLPA.propagate(GraphOps.adjacencyRDD(spark.sparkContext, g), 9, 6)
      .collect()
      .foreach { case (_, st) =>
        assert(st.labels.length == 10 && st.srcs.length == 10 && st.poss.length == 10)
      }
  }
}
