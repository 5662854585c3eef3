package repro.core

import repro.util.Rng

/** The canonical random decisions of rSLPA, shared verbatim by the local
  * and Spark engines so both produce bit-identical results under a seed.
  */
object Picks {

  /** Algorithm 1's pick for vertex `vid` at iteration `t`:
    * `(neighborIndex, pos)` with the index uniform over the *sorted*
    * adjacency array and `pos` uniform in `[0, t)`. A degree-0 vertex
    * self-picks (`(-1, 0)` — callers substitute `src = vid`).
    */
  def pickIdx(deg: Int, vid: Long, t: Int, seed: Long): (Int, Int) = {
    if (deg == 0) (-1, 0)
    else {
      val rng = Rng.forVertex(seed, vid, t, Rng.SaltPropagate)
      (rng.nextInt(deg), rng.nextInt(t))
    }
  }

  /** How one vertex's sorted adjacency changed in an edit batch, computed
    * once per vertex for all of its [[repick]] decisions: `added` holds the
    * new neighbors in adjacency order.
    */
  final case class NbrDiff(oldAdj: Array[Long], newAdj: Array[Long]) {
    val unchanged: Boolean = java.util.Arrays.equals(oldAdj, newAdj)
    val added: Array[Long] = newAdj.filter(java.util.Arrays.binarySearch(oldAdj, _) < 0)
    def isNeighbor(v: Long): Boolean = java.util.Arrays.binarySearch(newAdj, v) >= 0
  }

  /** The §IV-A re-pick decision for `(vid, t)` after an edit batch
    * (Categories 1–3, Theorems 4/5). `Some((src, pos))` means the pick must
    * change to the returned values; `None` keeps the existing pick.
    * Adjacency arrays must be sorted. `epoch` separates successive batches.
    */
  def repick(d: NbrDiff, vid: Long, t: Int, curSrc: Long, seed: Long, epoch: Long): Option[(Long, Int)] = {
    if (d.unchanged) return None // Category 1
    val rng = Rng.forVertex(seed ^ (epoch * 0x9e3779b97f4a7c15L), vid, t, Rng.SaltRepick)

    def fresh(candidates: Array[Long]): Option[(Long, Int)] =
      if (candidates.isEmpty) Some((vid, 0)) // became isolated: self-pick
      else Some((candidates(rng.nextInt(candidates.length)), rng.nextInt(t)))

    if (curSrc == vid && d.oldAdj.isEmpty) {
      // Previously isolated: every current neighbor is new.
      if (d.newAdj.isEmpty) None else fresh(d.newAdj)
    } else if (!d.isNeighbor(curSrc)) {
      fresh(d.newAdj) // source edge deleted → uniform over all current neighbors
    } else if (d.added.isEmpty) {
      None // Category 2, source survived: keep (Theorem 4)
    } else {
      // Category 3, source survived: keep w.p. n_u / (n_u + n_a),
      // else uniform among the *new* neighbors (Theorem 5).
      val nU = d.newAdj.length - d.added.length
      if (rng.nextDouble() < nU.toDouble / (nU + d.added.length)) None
      else fresh(d.added)
    }
  }
}
