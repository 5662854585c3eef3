package repro.core

import org.apache.spark.{HashPartitioner, Partitioner}
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.graph.ConnectedComponents

import scala.collection.mutable.ArrayBuilder

/** Distributed rSLPA post-processing (§III-B): edge similarity weights,
  * threshold selection (Eqs. 1–2) and community extraction via connected
  * components with weight filtering. The weights stay distributed; only a
  * maximum spanning forest (≤ |V|−1 edges) reaches the driver, where the
  * thresholds and components are computed as in the local engine.
  */
object SparkPostProcess {

  /** Extraction result: overlapping assignments `(vertex, communityId)`
    * plus the chosen thresholds.
    */
  final case class SparkCover(assignments: RDD[(Long, Long)], tau1: Double, tau2: Double)

  /** One partition's label memories as histograms: the vertex in row r of
    * `ids` has the sorted distinct labels `labels(off(r) until off(r + 1))`
    * with their `counts`.
    */
  private final class Hists(val ids: Array[Long], val off: Array[Int],
                            val labels: Array[Long], val counts: Array[Int]) extends Serializable {
    /** The row of edge endpoint `v`, whose memory must be here. */
    def row(v: Long): Int = {
      val r = java.util.Arrays.binarySearch(ids, v)
      if (r < 0) throw new IllegalArgumentException(s"edgeWeights: edge endpoint $v has no label memory")
      r
    }

    /** The histograms of `rows`, in that order. */
    def select(rows: Array[Int]): Hists = {
      val off2 = rows.scanLeft(0)((o, r) => o + off(r + 1) - off(r))
      val labels2 = new Array[Long](off2.last); val counts2 = new Array[Int](off2.last)
      rows.indices.foreach { k =>
        System.arraycopy(labels, off(rows(k)), labels2, off2(k), off2(k + 1) - off2(k))
        System.arraycopy(counts, off(rows(k)), counts2, off2(k), off2(k + 1) - off2(k))
      }
      new Hists(rows.map(ids), off2, labels2, counts2)
    }
  }

  private object Hists {
    /** Sorted distinct labels and counts of every memory, rows sorted by id.
      * A memory whose length is not `memLen` is rejected, naming its vertex.
      */
    def apply(mems: Iterator[(Long, Array[Long])], memLen: Int): Hists = {
      val rows = mems.toArray.sortBy(_._1)
      val off = new Array[Int](rows.length + 1)
      val labels = new ArrayBuilder.ofLong; val counts = new ArrayBuilder.ofInt
      rows.indices.foreach { r =>
        val (v, mem) = rows(r)
        require(mem.length == memLen,
          s"edgeWeights: vertex $v has a label memory of length ${mem.length}, not memLen = $memLen")
        val sorted = mem.clone()
        java.util.Arrays.sort(sorted)
        var i = 0
        while (i < sorted.length) {
          var j = i + 1
          while (j < sorted.length && sorted(j) == sorted(i)) j += 1
          labels += sorted(i); counts += j - i
          off(r + 1) += 1
          i = j
        }
        off(r + 1) += off(r)
      }
      new Hists(rows.map(_._1), off, labels.result(), counts.result())
    }
  }

  /** Σ_l a(l)·b(l) over histogram row `ra` of `a` and row `rb` of `b`. */
  private def overlap(a: Hists, ra: Int, b: Hists, rb: Int): Long = {
    var i = a.off(ra); var j = b.off(rb); var s = 0L
    while (i < a.off(ra + 1) && j < b.off(rb + 1)) {
      if (a.labels(i) < b.labels(j)) i += 1
      else if (a.labels(i) > b.labels(j)) j += 1
      else { s += a.counts(i).toLong * b.counts(j); i += 1; j += 1 }
    }
    s
  }

  /** The weights of one partition as columns, `ws(k)` for edge
    * `(us(k), vs(k))`, and `n`, the number of label memories there.
    */
  private final class Weights(val us: Array[Long], val vs: Array[Long], val ws: Array[Double],
                              val n: Long) extends Serializable {
    def iterator: Iterator[((Long, Long), Double)] = us.indices.iterator.map(k => ((us(k), vs(k)), ws(k)))
  }

  private def partitionerOf(labels: RDD[(Long, Array[Long])]): Partitioner =
    labels.partitioner.getOrElse(new HashPartitioner(labels.getNumPartitions))

  /** w_uv = P(uniform draw from L_u = uniform draw from L_v) for every
    * edge `(u, v)` of `edges`. `memLen` is the memory length (T + 1). An
    * edge endpoint without a label memory, and a memory of another length,
    * are rejected, naming the vertex.
    */
  def edgeWeights(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
                  memLen: Int): RDD[((Long, Long), Double)] =
    edgeWeights(labels, edges, memLen, partitionerOf(labels)).flatMap(_.iterator)

  /** The weights as one [[Weights]] block per partition of `part`. Each
    * partition of `labels` (partitioned by `part` first) builds its
    * histograms once. Edges travel to u's partition, then with u's
    * histogram to v's partition, as one message of columns per pair of
    * partitions that carries each histogram once; there the weight is a
    * merge of two sorted histograms, the same integer sum ÷ memLen² as the
    * local engine.
    */
  private def edgeWeights(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
                          memLen: Int, part: Partitioner): RDD[Weights] = {
    val toPart = SparkRSLPA.ToPartition(part.numPartitions)
    val hists = labels.partitionBy(part).mapPartitions(it => Iterator(Hists(it, memLen)), preservesPartitioning = true)
    val byU = edges.mapPartitions { it =>
      val us = Array.fill(part.numPartitions)(new ArrayBuilder.ofLong)
      val vs = Array.fill(part.numPartitions)(new ArrayBuilder.ofLong)
      it.foreach { case (u, v) => val p = part.getPartition(u); us(p) += u; vs(p) += v }
      us.indices.iterator.map(p => (p, (us(p).result(), vs(p).result()))).filter(_._2._1.nonEmpty)
    }.partitionBy(toPart)
    // At u's partition: per destination, the distinct u rows in first-seen
    // order and, per edge, the index of u among them and v.
    val toV = hists.zipPartitions(byU) { (hs, es) =>
      val h = hs.next()
      val n = part.numPartitions
      val slot = new Array[Array[Int]](n)
      val rows = Array.fill(n)(new ArrayBuilder.ofInt)
      val eu = Array.fill(n)(new ArrayBuilder.ofInt); val ev = Array.fill(n)(new ArrayBuilder.ofLong)
      es.foreach { case (_, (us, vs)) =>
        var k = 0
        while (k < us.length) {
          val r = h.row(us(k)); val p = part.getPartition(vs(k))
          if (slot(p) == null) slot(p) = Array.fill(h.ids.length)(-1)
          if (slot(p)(r) < 0) { slot(p)(r) = rows(p).length; rows(p) += r }
          eu(p) += slot(p)(r); ev(p) += vs(k)
          k += 1
        }
      }
      (0 until n).iterator.filter(slot(_) != null).map(p => (p, (h.select(rows(p).result()), eu(p).result(), ev(p).result())))
    }.partitionBy(toPart)
    val denom = memLen.toDouble * memLen
    hists.zipPartitions(toV, preservesPartitioning = true) { (hs, ms) =>
      val h = hs.next()
      val us = new ArrayBuilder.ofLong; val vs = new ArrayBuilder.ofLong; val ws = new ArrayBuilder.ofDouble
      ms.foreach { case (_, (hu, eu, ev)) =>
        var k = 0
        while (k < eu.length) {
          us += hu.ids(eu(k)); vs += ev(k); ws += overlap(hu, eu(k), h, h.row(ev(k))) / denom
          k += 1
        }
      }
      Iterator(new Weights(us.result(), vs.result(), ws.result(), h.ids.length))
    }
  }

  /** Full extraction: τ2 and τ1 come from a maximum spanning forest built
    * by Kruskal in each partition and merged up a `treeReduce`
    * (`PostProcess.spanningForest`), so the thresholds, the components at
    * τ1 and the cover equal the local engine's; the same job counts the
    * vertices for Eq. 1. Components at τ1 are
    * labelled on the driver by their minimum vertex id; an isolated vertex
    * joins the community of every non-isolated neighbor with w ≥ τ2.
    */
  def extract(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
              memLen: Int): SparkCover = {
    // Cached as columns: sizing one object graph per partition for the
    // block store is far cheaper than one per edge.
    val w = edgeWeights(labels, edges, memLen, partitionerOf(labels)).persist(StorageLevel.MEMORY_AND_DISK)
    val (forest, n) = w
      .map(b => (PostProcess.spanningForest(b.us.indices.iterator.map(k => (b.us(k), b.vs(k), b.ws(k)))), b.n))
      .treeReduce { case ((f1, n1), (f2, n2)) => (PostProcess.spanningForest(f1.iterator ++ f2.iterator), n1 + n2) }
    val sc = labels.sparkContext
    if (forest.isEmpty) return SparkCover(sc.emptyRDD[(Long, Long)], 0.0, 0.0)
    val (tau2, tau1) = PostProcess.thresholds(forest, n.toInt)

    val uf = new ConnectedComponents.UnionFind
    val strong = forest.filter(_._3 >= tau1)
    strong.foreach { case (u, v, _) => uf.union(u, v) }
    val community = strong.iterator.flatMap(e => Iterator(e._1, e._2)).map(v => v -> uf.find(v)).toMap
    val bc = sc.broadcast(community)
    val attached = w.flatMap(_.iterator).flatMap { case ((u, v), x) =>
      if (x < tau2) Iterator.empty
      else (bc.value.get(u), bc.value.get(v)) match {
        case (Some(c), None) => Iterator((v, c))
        case (None, Some(c)) => Iterator((u, c))
        case _               => Iterator.empty
      }
    }.distinct()
    SparkCover(sc.parallelize(community.toSeq).union(attached), tau1, tau2)
  }
}
