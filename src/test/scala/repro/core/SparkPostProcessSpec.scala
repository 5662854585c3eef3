package repro.core

import org.apache.spark.{HashPartitioner, SparkException}
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.graph.{GraphGen, GraphOps, LocalGraph}
import repro.lfr.{LFRGenerator, LFRParams}

class SparkPostProcessSpec extends AnyFunSuite with SparkSpec {

  private lazy val g = GraphGen.webGraphLocal(6, 150, seed = 70)._2
  private lazy val localSt = LocalRSLPA.propagate(g, T = 12, seed = 71)
  private def sc = spark.sparkContext

  private def labelsRDD = sc.parallelize(
    (0 until g.n).map(i => (i.toLong, localSt.labels(i))))

  test("spark edge weights match the local computation") {
    val dist = SparkPostProcess.edgeWeights(labelsRDD, GraphOps.edgesRDD(sc, g), memLen = 13)
      .collect().toMap
    val local = PostProcess.edgeWeights(g, localSt.labels)
    assert(dist.size == local.size)
    local.foreach { case ((u, v), w) =>
      assert(dist((u.toLong, v.toLong)) == w, s"weight differs at ($u,$v)")
    }
  }

  test("spark edge weights are the same for hash-partitioned labels and unpartitioned edges") {
    val edges = GraphOps.edgesRDD(sc, g)
    val partitioned = labelsRDD.partitionBy(new HashPartitioner(3))
    assert(edges.partitioner.isEmpty)
    assert(SparkPostProcess.edgeWeights(partitioned, edges, memLen = 13).collect().toMap ==
      SparkPostProcess.edgeWeights(labelsRDD, edges, memLen = 13).collect().toMap)
  }

  test("spark edge weights reject an edge whose endpoint has no label memory") {
    val lbls = sc.parallelize(Seq((0L, Array(0L, 1L)), (1L, Array(1L, 1L))))
    for (bad <- Seq((1L, 9L), (9L, 1L))) {
      val edges = sc.parallelize(Seq((0L, 1L), bad))
      val e = intercept[SparkException](SparkPostProcess.edgeWeights(lbls, edges, memLen = 2).collect())
      assert(e.getMessage.contains("edgeWeights: edge endpoint 9 has no label memory"), e.getMessage)
    }
  }

  test("spark edge weights and extract reject a memLen that is not the memory length") {
    for (memLen <- Seq(12, 14)) {
      val e1 = intercept[SparkException](SparkPostProcess.edgeWeights(labelsRDD, GraphOps.edgesRDD(sc, g), memLen).collect())
      val e2 = intercept[SparkException](SparkPostProcess.extract(labelsRDD, GraphOps.edgesRDD(sc, g), memLen))
      for (e <- Seq(e1, e2))
        assert(e.getMessage.matches(s"(?s).*edgeWeights: vertex \\d+ has a label memory of length 13, not memLen = $memLen.*"),
          e.getMessage)
    }
  }

  test("DataFrame edge weights agree with DuckDB (Oracle)") {
    import spark.implicits._
    val labelRows = for {
      i <- 0 until g.n; l <- localSt.labels(i)
    } yield (i.toLong, l)
    val labelsDF = labelRows.toDF("vid", "label")
    val edgesDF = g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toDF("u", "v")
    val got = SparkPostProcess.edgeWeights(labelsRDD, GraphOps.edgesRDD(sc, g), memLen = 13)
      .map { case ((u, v), w) => (u, v, w) }.toDF("u", "v", "w")
    Oracle.assertEquivalent(
      got,
      """SELECT e.u AS u, e.v AS v,
        |       SUM(cu.cnt * cv.cnt) / (13.0 * 13.0) AS w
        |FROM edges e
        |JOIN (SELECT vid, label, COUNT(*) AS cnt FROM labels GROUP BY vid, label) cu
        |  ON cu.vid = e.u
        |JOIN (SELECT vid, label, COUNT(*) AS cnt FROM labels GROUP BY vid, label) cv
        |  ON cv.vid = e.v AND cv.label = cu.label
        |GROUP BY e.u, e.v""".stripMargin,
      "labels" -> labelsDF, "edges" -> edgesDF
    )
  }

  private def coverOf(c: SparkPostProcess.SparkCover): Set[Set[Int]] =
    c.assignments.collect().groupBy(_._2).values.map(_.map(_._1.toInt).toSet).toSet

  test("spark extract yields a cover consistent with local extractAt") {
    val cover = SparkPostProcess.extract(labelsRDD, GraphOps.edgesRDD(sc, g), 13)
    val localW = PostProcess.edgeWeights(g, localSt.labels)
    val localCover = PostProcess.extractAt(g, localW, cover.tau1, cover.tau2)
    assert(coverOf(cover) == localCover.toSet,
      s"covers differ: dist=${coverOf(cover).size} local=${localCover.size} communities")
  }

  private lazy val lfr = LFRGenerator.generate(
    LFRParams(n = 200, avgDeg = 10, maxDeg = 30, mu = 0.2, on = 20, om = 2, seed = 72)).graph

  for ((name, graph) <- Seq[(String, () => LocalGraph)]("web" -> (() => g), "LFR" -> (() => lfr))) {
    test(s"spark extract equals local extract: cover, tau1 and tau2 ($name graph)") {
      val gr = graph()
      val T = 20
      val labels = LocalRSLPA.propagate(gr, T, seed = 73).labels
      val cover = SparkPostProcess.extract(
        sc.parallelize(labels.indices.map(i => (i.toLong, labels(i)))), GraphOps.edgesRDD(sc, gr), T + 1)
      val w = PostProcess.edgeWeights(gr, labels)
      val (tau2, tau1) = PostProcess.thresholds(
        PostProcess.spanningForest(w.iterator.map { case ((u, v), x) => (u.toLong, v.toLong, x) }), gr.n)
      assert(cover.tau1 == tau1 && cover.tau2 == tau2)
      assert(coverOf(cover) == PostProcess.extract(gr, labels).toSet)
    }
  }

  test("extract on a graph with no edges returns an empty cover") {
    val iso = LocalGraph.fromEdges(3, Nil)
    val lbls = sc.parallelize(Seq((0L, Array(0L)), (1L, Array(1L)), (2L, Array(2L))))
    val cover = SparkPostProcess.extract(lbls, sc.emptyRDD[(Long, Long)], 1)
    assert(cover.assignments.isEmpty())
  }
}
