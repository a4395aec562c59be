package repro.core

/** Third CLUGP pass: transform the vertex→partition map into the final
  * edge→partition assignment (paper §III-C, Algorithm 1).
  *
  * A second traversal of the edge stream; each edge is placed by querying
  * the two mapping tables (vertex→cluster, cluster→partition) in O(1):
  *
  *  - if either endpoint's partition is full (≥ `L_max = τ|E|/k`), spill
  *    to an underflow partition — this enforces the user's imbalance
  *    factor τ exactly;
  *  - same partition on both sides → place there (no new replica);
  *  - an endpoint already divided during clustering is cut again (its
  *    replicas exist anyway);
  *  - otherwise cut the higher-degree endpoint (the HDRF/DBH power-law
  *    rule the paper cites).
  */
object PartitionTransformation {

  /** @param stream the edge stream (same order as pass 1)
    * @param clustering output of pass 1 (cluster map, degrees, divided flags)
    * @param clusterPart output of pass 2 (cluster → partition)
    * @param k number of partitions
    * @param tau imbalance factor τ ≥ 1
    * @return partition id per edge, parallel to the stream order
    */
  def transform(stream: EdgeStream, clustering: ClusteringResult,
                clusterPart: Array[Int], k: Int, tau: Double): Array[Int] = {
    require(k >= 1, s"number of partitions must be >= 1, got $k")
    val nE = stream.numEdges
    require(tau >= 1.0, s"imbalance factor must be >= 1, got $tau")
    val lMax = this.lMax(nE, k, tau)
    val load = new Array[Long](k)
    val out  = new Array[Int](nE)
    val clu = clustering.clu; val deg = clustering.deg; val divided = clustering.divided
    var spill = 0 // rotates so overflow spills spread over partitions

    // whether divided vertex x has a mirror on partition p (Algorithm 1
    // line 19: an edge can ride an existing mirror instead of minting a
    // new replica): some mirror cluster of x is placed on p by pass 2
    val mirrorStart = clustering.mirrorStart; val mirrorIds = clustering.mirrorIds
    @inline def hasMirrorAt(x: Int, p: Int): Boolean = {
      var j = mirrorStart(x); val end = mirrorStart(x + 1)
      while (j < end) { if (clusterPart(mirrorIds(j)) == p) return true; j += 1 }
      false
    }

    val src = stream.src; val dst = stream.dst
    var i = 0
    while (i < nE) {
      val u = src(i); val v = dst(i)
      val pu = clusterPart(clu(u)); val pv = clusterPart(clu(v))
      val p: Int =
        if (load(pu) >= lMax || load(pv) >= lMax) {
          if (load(pu) < lMax) pu
          else if (load(pv) < lMax) pv
          else {
            // both full: first underflow partition, scanning round-robin
            while (load(spill) >= lMax) spill = (spill + 1) % k
            spill
          }
        } else if (pu == pv) pu
        else if (hasMirrorAt(u, pv)) pv  // u already mirrored at p_v: free
        else if (hasMirrorAt(v, pu)) pu
        else if (divided(u) && !divided(v)) pv // u is replicated already — cut u
        else if (divided(v) && !divided(u)) pu
        else if (deg(v) > deg(u)) pu          // cut the higher-degree endpoint
        else if (deg(u) > deg(v)) pv
        else pu
      out(i) = p
      load(p) += 1
      i += 1
    }
    out
  }

  /** The most edges a partition takes, L_max = ⌈τ·|E|/k⌉, at least 1;
    * ceil so k·L_max ≥ |E| — a below-threshold partition always exists. */
  private[repro] def lMax(numEdges: Int, k: Int, tau: Double): Long =
    math.max(1L, math.ceil(tau * numEdges / k.toDouble).toLong)
}
