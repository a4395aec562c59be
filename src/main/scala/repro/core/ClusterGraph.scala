package repro.core

import repro.Blocks.LongIndex

/** The cluster-level multigraph the partitioning game plays on.
  *
  * Built by one pass over the edge stream using the final vertex→cluster
  * map: an edge whose endpoints share a cluster is *intra* (contributes to
  * `|c_i|`), otherwise it is a cut edge between the two clusters.
  *
  * @param sizes  `|c_i|` — intra-cluster edge count per cluster id
  * @param neighborIds for each cluster, ids of adjacent clusters, ascending
  * @param neighborWeights parallel to `neighborIds`: number of cut edges
  *        between the two clusters, both directions summed (the game cost
  *        `½(e(c_i,V∖a_i)+e(V∖a_i,c_i))` only ever uses the sum)
  * @param cutDegree Σ_j w(c_i, c_j) per cluster — total incident cut edges
  * @param totalIntraEdges Σ_i |c_i|
  * @param totalCutEdges number of edges with endpoints in different
  *        clusters (= Σ_i |e(c_i, V∖c_i)| of the paper, since each cut
  *        edge leaves exactly one cluster)
  */
final case class ClusterGraph(
    sizes: Array[Long],
    neighborIds: Array[Array[Int]],
    neighborWeights: Array[Array[Long]],
    cutDegree: Array[Long],
    totalIntraEdges: Long,
    totalCutEdges: Long) {

  def numClusters: Int = sizes.length

  /** Whether cluster `c` plays the partitioning game: it has intra or cut
    * edges. Any other id (emptied by migration or splitting) costs 0 on
    * every partition, so best response never moves it. */
  def isPlayer(c: Int): Boolean = sizes(c) > 0 || cutDegree(c) > 0

  /** The paper's maximum normalization factor λ_max (Theorem 5):
    * `k² Σ|e(c_i,V∖c_i)| / (Σ|c_i|)²`. Experiments set λ to this value.
    */
  def lambdaMax(k: Int): Double = {
    val intra = math.max(1L, totalIntraEdges).toDouble
    k.toDouble * k.toDouble * totalCutEdges.toDouble / (intra * intra)
  }
}

object ClusterGraph {

  /** Build the cluster multigraph from a clustering of `stream`: one pass
    * counts intra edges and the cut edges of each cluster pair
    * `min << 32 | max`, then a counting pass over the distinct pairs,
    * ascending, lists each cluster's neighbours in ascending id order. */
  def build(stream: EdgeStream, clustering: ClusteringResult): ClusterGraph = {
    val m     = clustering.numClusters
    val clu   = clustering.clu
    val sizes = new Array[Long](m)
    val pairs = new LongIndex("cluster pairs")
    var weight = new Array[Long](16) // cut edges per pair id
    var cut = 0L

    val src = stream.src; val dst = stream.dst
    var i = 0
    while (i < src.length) {
      val cu = clu(src(i)); val cv = clu(dst(i))
      if (cu == cv) sizes(cu) += 1
      else {
        val id = pairs.add(math.min(cu, cv).toLong << 32 | math.max(cu, cv))
        if (id == weight.length) weight = java.util.Arrays.copyOf(weight, 2 * id)
        weight(id) += 1; cut += 1
      }
      i += 1
    }

    val keys = pairs.sortedKeys
    val degree = new Array[Int](m)
    var j = 0
    while (j < keys.length) { degree((keys(j) >>> 32).toInt) += 1; degree(keys(j).toInt) += 1; j += 1 }
    val nbrIds = new Array[Array[Int]](m)
    val nbrW   = new Array[Array[Long]](m)
    var c = 0
    while (c < m) {
      nbrIds(c) = if (degree(c) == 0) Array.emptyIntArray else new Array[Int](degree(c))
      nbrW(c) = if (degree(c) == 0) Array.emptyLongArray else new Array[Long](degree(c))
      c += 1
    }
    val cutDeg = new Array[Long](m)
    val filled = new Array[Int](m)
    @inline def link(a: Int, b: Int, w: Long): Unit = {
      nbrIds(a)(filled(a)) = b; nbrW(a)(filled(a)) = w
      filled(a) += 1; cutDeg(a) += w
    }
    // a pair (a, c) with a < c sorts before every (c, b) with c < b, so
    // each cluster's neighbours arrive in ascending order
    j = 0
    while (j < keys.length) {
      val a = (keys(j) >>> 32).toInt; val b = keys(j).toInt
      val w = weight(pairs(keys(j)))
      link(a, b, w); link(b, a, w)
      j += 1
    }
    ClusterGraph(sizes, nbrIds, nbrW, cutDeg, src.length - cut, cut)
  }
}
