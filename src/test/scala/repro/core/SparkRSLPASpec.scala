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

  test("resolve rejects picks that are not T+1 long, naming the vertex") {
    val sc = spark.sparkContext
    val part = new HashPartitioner(2)
    val picks = SparkRSLPA.picks(GraphOps.adjacencyRDD(sc, LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))), 8, 7, part)
    val e = intercept[SparkException](SparkRSLPA.resolve(picks, 5, part))
    assert(e.getMessage.matches("(?s).*vertex \\d has 9 srcs and 9 poss, not T\\+1 = 6.*"), e.getMessage)
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

  // (i, t) copies (i+1 mod n, t−1), so the chain from (i, t) has exactly t
  // hops and ends at label (i+t) mod n: the deepest chains T allows. A chain
  // of d hops needs ⌈log2 d⌉ doubling rounds; T = 1 needs none.
  for (T <- Seq(1, 2, 3, 4, 5, 8, 9, 40, 64, 200)) {
    test(s"resolve takes ceil(log2 T) rounds on chains of the worst-case depth (T=$T)") {
      val n = 5
      val picks = spark.sparkContext.parallelize((0 until n).map { i =>
        val next = ((i + 1) % n).toLong
        i.toLong -> SparkRSLPA.RVState(Array(next), Array.emptyLongArray,
          Array.tabulate(T + 1)(t => if (t == 0) i.toLong else next), Array.tabulate(T + 1)(t => math.max(t - 1, 0)))
      })
      val part = new HashPartitioner(3)
      val (dist, rounds) = SparkRSLPA.resolve(picks.partitionBy(part), T, part)
      val labels = dist.collect().toMap
      assert(labels.size == n)
      labels.foreach { case (i, st) =>
        assert(st.labels.toSeq == (0 to T).map(t => (i + t) % n), s"labels of $i")
      }
      assert(rounds == 32 - Integer.numberOfLeadingZeros(T - 1), s"$rounds doubling rounds for T=$T")
    }
  }

  test("resolve keeps only its result's blocks persisted and counts the rounds the deepest chain needs") {
    val sc = spark.sparkContext
    val g = GraphGen.webGraphLocal(7, 300, seed = 4)._2
    val T = 40
    val part = new HashPartitioner(4)
    val before = sc.getPersistentRDDs.keySet
    val (dist, rounds) = SparkRSLPA.resolve(SparkRSLPA.picks(GraphOps.adjacencyRDD(sc, g), T, 41, part), T, part)
    assert(sc.getPersistentRDDs.keySet -- before == Set(dist.dependencies.head.rdd.id))
    val local = LocalRSLPA.propagate(g, T, 41)
    assertStateMatches(local, dist.collect().toMap)
    // Hops of the chain from (i, t); pos < t, so increasing t suffices.
    val depth = Array.fill(g.n)(new Array[Int](T + 1))
    for (t <- 1 to T; i <- 0 until g.n) depth(i)(t) = 1 + depth(local.srcs(i)(t))(local.poss(i)(t))
    val deepest = depth.map(_.max).max
    assert(deepest > 2 && rounds == 32 - Integer.numberOfLeadingZeros(deepest - 1),
      s"$rounds rounds for chains of up to $deepest hops")
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
