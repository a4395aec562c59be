package repro.core

/** The cluster-level multigraph the partitioning game plays on.
  *
  * Built by one pass over the edge stream using the final vertex→cluster
  * map: an edge whose endpoints share a cluster is *intra* (contributes to
  * `|c_i|`), otherwise it is a cut edge between the two clusters.
  *
  * @param sizes  `|c_i|` — intra-cluster edge count per cluster id
  * @param neighborIds for each cluster, ids of adjacent clusters
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

  /** Build the cluster multigraph from a clustering of `stream`. */
  def build(stream: EdgeStream, clustering: ClusteringResult): ClusterGraph = {
    val m     = clustering.numClusters
    val clu   = clustering.clu
    val sizes = new Array[Long](m)
    // adjacency accumulated as per-cluster hash maps, then frozen to arrays
    val adj = new Array[java.util.HashMap[Integer, Long]](m)
    var cut = 0L

    @inline def bump(a: Int, b: Int): Unit = {
      var h = adj(a)
      if (h == null) { h = new java.util.HashMap[Integer, Long](); adj(a) = h }
      h.merge(b, 1L, (x, y) => x + y)
    }

    val src = stream.src; val dst = stream.dst
    var i = 0
    while (i < src.length) {
      val cu = clu(src(i)); val cv = clu(dst(i))
      if (cu == cv) sizes(cu) += 1
      else { bump(cu, cv); bump(cv, cu); cut += 1 }
      i += 1
    }

    val nbrIds = new Array[Array[Int]](m)
    val nbrW   = new Array[Array[Long]](m)
    val cutDeg = new Array[Long](m)
    var c = 0
    while (c < m) {
      val h = adj(c)
      if (h == null) { nbrIds(c) = Array.emptyIntArray; nbrW(c) = Array.emptyLongArray }
      else {
        val ids = new Array[Int](h.size()); val ws = new Array[Long](h.size())
        var j = 0; var deg = 0L
        val it = h.entrySet().iterator()
        while (it.hasNext) {
          val e = it.next()
          ids(j) = e.getKey; ws(j) = e.getValue; deg += e.getValue; j += 1
        }
        nbrIds(c) = ids; nbrW(c) = ws; cutDeg(c) = deg
      }
      c += 1
    }
    ClusterGraph(sizes, nbrIds, nbrW, cutDeg, sizes.sum, cut)
  }
}
