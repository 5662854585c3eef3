package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.graph.ConnectedComponents

import scala.collection.mutable
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

  /** A message to vertex v: for each `k`, edge endpoint `us(k)` and its
    * label histogram, sorted distinct labels `labels(from(k) until
    * from(k + 1))` with their `counts`.
    */
  private final case class Hists(us: Array[Long], from: Array[Int],
                                 labels: Array[Long], counts: Array[Int])

  /** A label memory as sorted distinct labels and their counts. */
  private def histogram(mem: Array[Long]): (Array[Long], Array[Int]) = {
    val sorted = mem.clone()
    java.util.Arrays.sort(sorted)
    val labels = new ArrayBuilder.ofLong; val counts = new ArrayBuilder.ofInt
    var i = 0
    while (i < sorted.length) {
      var j = i + 1
      while (j < sorted.length && sorted(j) == sorted(i)) j += 1
      labels += sorted(i); counts += j - i
      i = j
    }
    (labels.result(), counts.result())
  }

  /** Σ_l a(l)·b(l) over two sorted histograms; `a` is the slice
    * `[a0, a1)` of `(la, ca)`.
    */
  private def overlap(la: Array[Long], ca: Array[Int], a0: Int, a1: Int,
                      lb: Array[Long], cb: Array[Int]): Long = {
    var i = a0; var j = 0; var s = 0L
    while (i < a1 && j < lb.length) {
      if (la(i) < lb(j)) i += 1
      else if (la(i) > lb(j)) j += 1
      else { s += ca(i).toLong * cb(j); i += 1; j += 1 }
    }
    s
  }

  /** w_uv = P(uniform draw from L_u = uniform draw from L_v) for every
    * edge `(u, v)` of `edges`. `memLen` is the memory length (T + 1). Each
    * vertex's histogram is built in its own partition of `labels` (which is
    * hash-partitioned first if it has no partitioner). Edges are routed to
    * u's partition, one [[Combine]]d message per partition and u; there
    * u's histogram is attached and sent to v's partition, one message per
    * partition and v, where the weight is a merge of the two histograms.
    * An edge endpoint without a label memory is rejected, naming it.
    */
  def edgeWeights(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
                  memLen: Int): RDD[((Long, Long), Double)] = {
    val part = labels.partitioner.getOrElse(new HashPartitioner(labels.getNumPartitions))
    val hists = labels.partitionBy(part).mapValues(histogram)
    def histOf(byId: mutable.LongMap[(Array[Long], Array[Int])], v: Long) =
      byId.getOrElse(v, throw new IllegalArgumentException(s"edgeWeights: edge endpoint $v has no label memory"))
    val byU = edges.mapPartitions { it =>
      val us = new ArrayBuilder.ofLong; val vs = new ArrayBuilder.ofLong
      it.foreach { case (u, v) => us += u; vs += v }
      val vcol = vs.result()
      Combine.byDst(us.result()).map { case (u, ks) => (u, ks.map(vcol)) }
    }.partitionBy(part)
    val toV = hists.zipPartitions(byU) { (hs, es) =>
      val byId = Combine.index(hs)
      val us = new ArrayBuilder.ofLong; val vs = new ArrayBuilder.ofLong
      es.foreach { case (u, uvs) => uvs.foreach { v => us += u; vs += v } }
      val ucol = us.result()
      Combine.byDst(vs.result()).map { case (v, ks) =>
        val uHists = ks.map(k => histOf(byId, ucol(k)))
        (v, Hists(ks.map(ucol), uHists.scanLeft(0)(_ + _._1.length), uHists.flatMap(_._1), uHists.flatMap(_._2)))
      }
    }.partitionBy(part)
    val denom = memLen.toDouble * memLen
    hists.zipPartitions(toV) { (hs, ms) =>
      val byId = Combine.index(hs)
      ms.flatMap { case (v, m) =>
        val (lv, cv) = histOf(byId, v)
        m.us.indices.iterator.map { k =>
          ((m.us(k), v), overlap(m.labels, m.counts, m.from(k), m.from(k + 1), lv, cv) / denom)
        }
      }
    }
  }

  /** Full extraction: τ2 and τ1 come from a maximum spanning forest built
    * by Kruskal in each partition and merged up a `treeReduce`
    * (`PostProcess.spanningForest`), so the thresholds, the components at
    * τ1 and the cover equal the local engine's. Components at τ1 are
    * labelled on the driver by their minimum vertex id; an isolated vertex
    * joins the community of every non-isolated neighbor with w ≥ τ2.
    */
  def extract(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
              memLen: Int): SparkCover = {
    // Cached as one array per partition: sizing one object graph per
    // partition for the block store is far cheaper than one per edge.
    val w = edgeWeights(labels, edges, memLen).glom().persist(StorageLevel.MEMORY_AND_DISK)
    val forest = w
      .map(ws => PostProcess.spanningForest(ws.iterator.map { case ((u, v), x) => (u, v, x) }))
      .treeReduce((a, b) => PostProcess.spanningForest(a.iterator ++ b.iterator))
    val sc = labels.sparkContext
    if (forest.isEmpty) return SparkCover(sc.emptyRDD[(Long, Long)], 0.0, 0.0)
    val (tau2, tau1) = PostProcess.thresholds(forest, labels.count().toInt)

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
