package repro.core

/** Output of the first CLUGP pass (paper Algorithm 2).
  *
  * @param clu     final cluster id of every vertex (-1 if the vertex never
  *                appeared in the stream)
  * @param deg     streaming degree of every vertex, as counted by the pass
  * @param divided per-vertex flag: the vertex triggered a cluster split, so
  *                it has mirror vertices left behind in earlier clusters
  * @param mirrorStart CSR offsets into `mirrorIds`, length |V|+1: the
  *                mirror clusters of vertex `v` are
  *                `mirrorIds(mirrorStart(v) until mirrorStart(v + 1))`
  * @param mirrorIds the clusters still holding a mirror of a divided
  *                vertex, one entry per split, each vertex's in split order
  * @param numClusters number of cluster ids allocated (m)
  * @param volumes final cluster volumes (sum of member master degrees)
  */
final case class ClusteringResult(
    clu: Array[Int],
    deg: Array[Int],
    divided: Array[Boolean],
    mirrorStart: Array[Int],
    mirrorIds: Array[Int],
    numClusters: Int,
    volumes: Array[Long]) {

  /** Number of non-empty clusters (ids that still own at least one master). */
  def numOccupiedClusters: Int = {
    val seen = new Array[Boolean](numClusters)
    var c = 0
    clu.foreach { ci => if (ci >= 0 && !seen(ci)) { seen(ci) = true; c += 1 } }
    c
  }

  /** Divided vertex → its mirror clusters in split order, built from the
    * CSR arrays. For tests and diagnostics only; no pass reads it. */
  lazy val mirrorClusters: Map[Int, Seq[Int]] =
    clu.indices.iterator.filter(v => mirrorStart(v) < mirrorStart(v + 1)).map { v =>
      v -> mirrorIds.slice(mirrorStart(v), mirrorStart(v + 1)).toSeq
    }.toMap
}

/** First CLUGP pass: streaming graph clustering (paper §IV, Algorithm 2).
  *
  * Extends Hollocou et al.'s *allocation-migration* streaming clustering
  * with a *splitting* operation: when a cluster's volume (sum of member
  * degrees) reaches `V_max`, the vertex that overflowed it is split into a
  * fresh cluster, leaving a mirror behind. Splitting chops high-degree
  * vertices early, which Theorem 1 shows can only lower the replication
  * factor versus Holl.
  */
object StreamingClustering {

  /** Run Algorithm 2 over the stream.
    *
    * @param stream    the BFS-ordered edge stream
    * @param vMax      maximum cluster volume; the paper's default is |E|/k
    * @param splitting `true` = CLUGP's allocation-splitting-migration;
    *                  `false` = Holl's allocation-migration (the CLUGP-S
    *                  ablation of Fig. 9)
    */
  def cluster(stream: EdgeStream, vMax: Long, splitting: Boolean = true): ClusteringResult = {
    val st  = new State(stream.numVertices)
    val clu = st.clu; val deg = st.deg

    val src = stream.src; val dst = stream.dst
    var i = 0
    while (i < src.length) {
      val u = src(i); val v = dst(i)
      // allocation: unseen vertices start as singleton clusters
      if (clu(u) < 0) clu(u) = st.newCluster()
      if (clu(v) < 0) clu(v) = st.newCluster()
      deg(u) += 1; deg(v) += 1
      st.vol(clu(u)) += 1; st.vol(clu(v)) += 1

      if (splitting) {
        // splitting: the vertex that overflowed its cluster moves to a
        // fresh cluster with its accumulated degree, leaving a mirror;
        // in BFS order its subsequent edges build the fresh cluster
        // around it (paper Fig. 2).
        if (st.vol(clu(u)) >= vMax) st.split(u)
        if (st.vol(clu(v)) >= vMax) st.split(v)
      }

      // migration: pull the endpoint in the smaller cluster into the
      // bigger one, if neither cluster is full (Holl's heuristic). In
      // split mode we additionally require the target to absorb the
      // migrated degree without overflowing — otherwise vertices churn at
      // the V_max boundary (migrate in → overflow on the next edge →
      // split out), inflating cluster and replica counts (see DESIGN.md).
      // Holl has no splitting, hence no churn, hence no check (faithful).
      val vol = st.vol
      val cu = clu(u); val cv = clu(v)
      if (cu != cv && vol(cu) < vMax && vol(cv) < vMax) {
        if (vol(cu) <= vol(cv)) {
          if (!splitting || vol(cv) + deg(u) <= vMax) {
            vol(cu) -= deg(u); vol(cv) += deg(u); clu(u) = cv
          }
        } else {
          if (!splitting || vol(cu) + deg(v) <= vMax) {
            vol(cv) -= deg(v); vol(cu) += deg(v); clu(v) = cu
          }
        }
      }
      i += 1
    }
    st.result()
  }

  /** Pass-1 state: cluster volumes in a growable `Array[Long]` holding ids
    * `[0, m)`, and the splits as two growable logs of (vertex, cluster it
    * left), in split order. */
  private final class State(nV: Int) {
    val clu = Array.fill(nV)(-1)
    val deg = new Array[Int](nV)
    val divided = new Array[Boolean](nV)
    var vol = new Array[Long](16)
    var m = 0
    var splitV = new Array[Int](16)
    var splitOld = new Array[Int](16)
    var splits = 0

    def newCluster(): Int = {
      if (m == vol.length) vol = java.util.Arrays.copyOf(vol, grown(m))
      m += 1
      m - 1
    }

    def split(x: Int): Unit = {
      val old = clu(x)
      val fresh = newCluster()
      clu(x) = fresh
      divided(x) = true
      vol(old) -= deg(x)
      vol(fresh) += deg(x)
      if (splits == splitV.length) {
        splitV = java.util.Arrays.copyOf(splitV, grown(splits))
        splitOld = java.util.Arrays.copyOf(splitOld, grown(splits))
      }
      splitV(splits) = x; splitOld(splits) = old; splits += 1
    }

    /** The result, with the split log turned into CSR arrays by a counting
      * sort on the vertex that keeps each vertex's splits in order. */
    def result(): ClusteringResult = {
      val start = new Array[Int](nV + 1)
      var i = 0
      while (i < splits) { start(splitV(i)) += 1; i += 1 }
      var v = 1
      while (v < nV) { start(v) += start(v - 1); v += 1 }
      start(nV) = splits
      // start(x) is now the end of x's range; walking the log backwards
      // fills each range from its end and leaves start(x) at its beginning
      val ids = new Array[Int](splits)
      i = splits - 1
      while (i >= 0) {
        val x = splitV(i)
        start(x) -= 1
        ids(start(x)) = splitOld(i)
        i -= 1
      }
      ClusteringResult(clu, deg, divided, start, ids, m, java.util.Arrays.copyOf(vol, m))
    }
  }

  /** Next capacity of a growable array of length `n`: double it, capped
    * at the largest array the JVM allocates. */
  private def grown(n: Int): Int =
    if (n >= (Int.MaxValue - 8) / 2) Int.MaxValue - 8 else math.max(16, 2 * n)
}
