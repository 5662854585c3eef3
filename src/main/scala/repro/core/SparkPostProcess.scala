package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.graph.ConnectedComponents

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

  /** w_uv = P(uniform draw from L_u = uniform draw from L_v) for every
    * canonical (u < v) edge. `memLen` is the memory length (T + 1).
    */
  def edgeWeights(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
                  memLen: Int): RDD[((Long, Long), Double)] = {
    val counts = labels.mapValues(m => m.groupBy(identity).map { case (l, a) => (l, a.length) })
    val denom = memLen.toDouble * memLen
    edges
      .map { case (u, v) => (u, v) }
      .join(counts)
      .map { case (u, (v, cu)) => (v, (u, cu)) }
      .join(counts)
      .map { case (v, ((u, cu), cv)) =>
        val (small, large) = if (cu.size <= cv.size) (cu, cv) else (cv, cu)
        var s = 0L
        small.foreach { case (l, c) => s += c.toLong * large.getOrElse(l, 0) }
        ((u, v), s / denom)
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
    val w = edgeWeights(labels, edges, memLen).persist(StorageLevel.MEMORY_AND_DISK)
    val forest = w
      .mapPartitions(it => Iterator(PostProcess.spanningForest(it.map { case ((u, v), x) => (u, v, x) })))
      .treeReduce((a, b) => PostProcess.spanningForest(a.iterator ++ b.iterator))
    val sc = labels.sparkContext
    if (forest.isEmpty) return SparkCover(sc.emptyRDD[(Long, Long)], 0.0, 0.0)
    val (tau2, tau1) = PostProcess.thresholds(forest, labels.count().toInt)

    val uf = new ConnectedComponents.UnionFind
    val strong = forest.filter(_._3 >= tau1)
    strong.foreach { case (u, v, _) => uf.union(u, v) }
    val community = strong.iterator.flatMap(e => Iterator(e._1, e._2)).map(v => v -> uf.find(v)).toMap
    val bc = sc.broadcast(community)
    val attached = w.flatMap { case ((u, v), x) =>
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
