package repro.core

import org.apache.spark.SparkException
import org.apache.spark.storage.StorageLevel
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.dynamic.EditBatch
import repro.graph.{GraphGen, GraphOps, LocalGraph}

class SparkCorrectionSpec extends AnyFunSuite with SparkSpec {

  /** Propagate on `g0` and update to `g1` in both engines. Returns the
    * local state before and after, the local stats, the Spark result and
    * the Spark stats.
    */
  private def runBoth(g0: LocalGraph, g1: LocalGraph, T: Int, seed: Long, epoch: Long) = {
    val localSt = LocalRSLPA.propagate(g0, T, seed)
    val before = localSt.copyState()
    val localStats = LocalIncremental.update(g0, g1, localSt, seed, epoch)

    val sc = spark.sparkContext
    val distSt0 = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g0), T, seed)
    val (distSt, stats) = SparkCorrection.update(
      distSt0, GraphOps.adjacencyRDD(sc, g1), T, seed, epoch)
    (before, localSt, localStats, distSt.collect().toMap, stats)
  }

  private def assertMatches(local: RslpaState, dist: Map[Long, SparkRSLPA.RVState]): Unit = {
    for (i <- 0 until local.n) {
      val d = dist(i.toLong)
      assert(d.labels.toSeq == local.labels(i).toSeq, s"labels differ at $i")
      assert(d.srcs.drop(1).map(_.toInt).toSeq == local.srcs(i).drop(1).toSeq, s"srcs differ at $i")
      assert(d.poss.drop(1).toSeq == local.poss(i).drop(1).toSeq, s"poss differ at $i")
    }
  }

  /** Smallest k with 2^k >= T, at least 1: the doubling-round bound. */
  private def roundBound(T: Int): Int = math.max(1, Iterator.iterate(1)(_ * 2).indexWhere(_ >= T))

  test("spark correction matches local incremental on a hand-made edit") {
    val g0 = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4), (0, 2)))
    val g1 = g0.edited(Seq((1, 4)), Seq((2, 3)))
    val (_, local, _, dist, stats) = runBoth(g0, g1, T = 8, seed = 31, epoch = 1)
    assertMatches(local, dist)
    assert(stats.repicked > 0)
  }

  /** A random graph and batch: states equal, stats from the data equal the
    * local repick count and the label diffs, rounds within the bound.
    */
  private def checkRandomBatch(seed: Long, T: Int): Unit = {
    val g0 = GraphGen.webGraphLocal(7, 300, seed = seed)._2
    val batch = EditBatch.halfAndHalf(g0, 30, seed = seed * 7)
    val g1 = g0.edited(batch.insertions, batch.deletions)
    val (before, local, localStats, dist, stats) = runBoth(g0, g1, T, seed = seed * 11, epoch = 2)
    assertMatches(local, dist)
    val eta = (0 until local.n).map(i => (0 to T).count(t => before.labels(i)(t) != local.labels(i)(t))).sum
    assert(stats.repicked == localStats.repicked)
    assert(stats.corrected == eta)
    assert(stats.rounds <= roundBound(T), s"${stats.rounds} doubling rounds for T=$T")
  }

  for (seed <- Seq(3L, 4L)) {
    test(s"spark correction matches local on a random graph + batch (seed=$seed)") {
      checkRandomBatch(seed, T = 10)
    }
  }

  test("spark correction matches local on a random graph + batch with deep chains (T=200)") {
    checkRandomBatch(seed = 5, T = 200)
  }

  test("spark correction with an empty batch is a no-op") {
    val g0 = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val (_, local, _, dist, stats) = runBoth(g0, g0, T = 6, seed = 32, epoch = 1)
    assert(stats.repicked == 0 && stats.corrected == 0)
    assertMatches(local, dist)
  }

  test("spark correction handles vertices becoming isolated") {
    val g0 = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (0, 2)))
    val g1 = g0.edited(Nil, Seq((0, 1), (0, 2)))
    val (_, local, _, dist, _) = runBoth(g0, g1, T = 7, seed = 33, epoch = 1)
    assertMatches(local, dist)
    assert(dist(0L).labels.forall(_ == 0L))
  }

  test("spark correction invariants hold on the new graph") {
    val g0 = GraphGen.webGraphLocal(6, 150, seed = 8)._2
    val batch = EditBatch.halfAndHalf(g0, 20, seed = 9)
    val g1 = g0.edited(batch.insertions, batch.deletions)
    val (_, _, _, dist, _) = runBoth(g0, g1, T = 8, seed = 35, epoch = 1)
    // Rebuild an RslpaState from the distributed result and check it.
    val st = new RslpaState(
      g1.n, 8,
      Array.tabulate(g1.n)(i => dist(i.toLong).labels),
      Array.tabulate(g1.n)(i => dist(i.toLong).srcs.map(_.toInt)),
      Array.tabulate(g1.n)(i => dist(i.toLong).poss)
    )
    val errs = st.checkInvariants(g1.adj)
    assert(errs.isEmpty, errs.take(5).mkString("; "))
  }

  test("spark correction applies successive batches to an evolving state with bounded lineage") {
    val sc = spark.sparkContext
    val T = 12; val seed = 36L
    val graphs = (1 to 3).scanLeft(GraphGen.webGraphLocal(7, 300, seed = 10)._2) { (g, k) =>
      val b = EditBatch.halfAndHalf(g, 30, seed = 10L + k)
      g.edited(b.insertions, b.deletions)
    }
    val local = LocalRSLPA.propagate(graphs(0), T, seed)
    var dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, graphs(0)), T, seed)
    val lineage = (1 to 3).map { epoch =>
      LocalIncremental.update(graphs(epoch - 1), graphs(epoch), local, seed, epoch)
      dist = SparkCorrection.update(dist, GraphOps.adjacencyRDD(sc, graphs(epoch)), T, seed, epoch)._1
      assertMatches(local, dist.collect().toMap)
      dist.toDebugString.linesIterator.size
    }
    assert(lineage(2) <= lineage(0), s"lineage grew across batches: ${lineage.mkString(" -> ")} lines")
  }

  for (parts <- Seq(1, 7)) {
    test(s"spark correction matches local over two batches with numPartitions=$parts") {
      val sc = spark.sparkContext
      val T = 10; val seed = 39L
      val graphs = (1 to 2).scanLeft(GraphGen.webGraphLocal(7, 300, seed = 11)._2) { (g, k) =>
        val b = EditBatch.halfAndHalf(g, 30, seed = 11L + k)
        g.edited(b.insertions, b.deletions)
      }
      val local = LocalRSLPA.propagate(graphs(0), T, seed)
      var dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, graphs(0)), T, seed, numPartitions = parts)
      for (epoch <- 1 to 2) {
        val localStats = LocalIncremental.update(graphs(epoch - 1), graphs(epoch), local, seed, epoch)
        val (next, stats) = SparkCorrection.update(
          dist, GraphOps.adjacencyRDD(sc, graphs(epoch)), T, seed, epoch)
        dist = next
        assert(dist.getNumPartitions == parts)
        assert(stats.repicked == localStats.repicked && stats.repicked > 0)
        assertMatches(local, dist.collect().toMap)
      }
    }
  }

  test("spark correction leaves the caller's state unpersisted and keeps only its result's blocks") {
    val sc = spark.sparkContext
    val g0 = GraphGen.webGraphLocal(6, 150, seed = 12)._2
    val b = EditBatch.halfAndHalf(g0, 20, seed = 13)
    val g1 = g0.edited(b.insertions, b.deletions)
    val local = LocalRSLPA.propagate(g0, 8, 40)
    LocalIncremental.update(g0, g1, local, 40, 1)
    val st = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g0), 8, 40)
    for (level <- Seq(StorageLevel.NONE, StorageLevel.MEMORY_ONLY)) {
      val view = st.mapValues(identity)
      if (level != StorageLevel.NONE) view.persist(level)
      val before = sc.getPersistentRDDs.keySet
      val (next, _) = SparkCorrection.update(view, GraphOps.adjacencyRDD(sc, g1), 8, 40, 1)
      assert(view.getStorageLevel == level)
      assert(sc.getPersistentRDDs.keySet -- before == Set(next.dependencies.head.rdd.id))
      assertMatches(local, next.collect().toMap)
    }
  }

  test("spark correction rejects a vertex missing from newAdj") {
    val sc = spark.sparkContext
    val g0 = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val st = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g0), 5, 37)
    val newAdj = GraphOps.adjacencyRDD(sc, g0).filter(_._1 != 3L)
    val e = intercept[SparkException](SparkCorrection.update(st, newAdj, 5, 37, 1))
    assert(e.getMessage.contains("vertex 3 of the state is missing from newAdj"), e.getMessage)
  }

  test("spark correction rejects a newAdj vertex absent from the state") {
    val sc = spark.sparkContext
    val g0 = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val st = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g0), 5, 38)
    val newAdj = GraphOps.adjacencyRDD(sc, g0).union(sc.parallelize(Seq(7L -> Array.emptyLongArray)))
    val e = intercept[SparkException](SparkCorrection.update(st, newAdj, 5, 38, 1))
    assert(e.getMessage.contains("newAdj lists vertex 7, which is not in the state"), e.getMessage)
  }

  /** A T = 8 state on a small graph, and the adjacency after one edit. */
  private def smallState(seed: Long) = {
    val sc = spark.sparkContext
    val g0 = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4), (0, 2)))
    val g1 = g0.edited(Seq((1, 4)), Seq((2, 3)))
    (SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g0), 8, seed), GraphOps.adjacencyRDD(sc, g1))
  }

  for (T <- Seq(5, 12)) {
    test(s"spark correction rejects a T = 8 state updated with T = $T, naming the vertex") {
      val (st, newAdj) = smallState(41)
      val e = intercept[SparkException](SparkCorrection.update(st, newAdj, T, 41, 1))
      assert(e.getMessage.matches(s"(?s).*vertex \\d+ has 9 srcs and 9 poss, not T\\+1 = ${T + 1}.*"), e.getMessage)
    }
  }

  test("spark correction rejects a label memory that is not T+1 long") {
    val (st, newAdj) = smallState(42)
    val cut = st.mapValues(s => s.copy(labels = s.labels.take(4)))
    val e = intercept[SparkException](SparkCorrection.update(cut, newAdj, 8, 42, 1))
    assert(e.getMessage.matches("(?s).*vertex \\d+ has a label memory of length 4, not T\\+1 = 9.*"), e.getMessage)
  }

  test("spark correction rejects a state that is not hash-partitioned") {
    val (st, newAdj) = smallState(43)
    val e = intercept[IllegalArgumentException](SparkCorrection.update(st.map(identity), newAdj, 8, 43, 1))
    assert(e.getMessage.contains("update: the state has partitioner none; it must be hash-partitioned"), e.getMessage)
  }
}
