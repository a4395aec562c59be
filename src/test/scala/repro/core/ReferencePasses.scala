package repro.core

import java.util.concurrent.{Callable, Executors, TimeUnit}

import scala.collection.mutable.ArrayBuffer

/** The reference for CLUGP's three passes and the cluster graph between
  * them: the boxed, O(m)-per-batch implementation that
  * [[StreamingClustering]], [[ClusterGraph.build]], [[ClusterPartitioning]]
  * and [[PartitionTransformation]] replaced. Tests assert the primitive
  * passes give exactly its clusters, volumes, mirror lists, cluster graphs,
  * placements, round and move counts, and edge assignments.
  */
object ReferencePasses {

  /** Pass-1 output with the mirror table as a boxed map (divided vertex →
    * clusters holding one of its mirrors, in split order). */
  final case class Clustering(
      clu: Array[Int],
      deg: Array[Int],
      divided: Array[Boolean],
      mirrorClusters: Map[Int, Seq[Int]],
      numClusters: Int,
      volumes: Array[Long])

  /** A [[ClusteringResult]] whose CSR mirror table holds `mirrorClusters`,
    * each vertex's list in the given order. */
  def clusteringResult(clu: Array[Int], deg: Array[Int], divided: Array[Boolean],
                       mirrorClusters: Map[Int, Seq[Int]], numClusters: Int,
                       volumes: Array[Long]): ClusteringResult = {
    val start = new Array[Int](clu.length + 1)
    for (v <- clu.indices) start(v + 1) = start(v) + mirrorClusters.getOrElse(v, Nil).length
    val ids = clu.indices.flatMap(v => mirrorClusters.getOrElse(v, Nil)).toArray
    ClusteringResult(clu, deg, divided, start, ids, numClusters, volumes)
  }

  /** Pass 1 (Algorithm 2) with `ArrayBuffer[Long]` volumes and a
    * `HashMap` of mirror lists. */
  def cluster(stream: EdgeStream, vMax: Long, splitting: Boolean = true): Clustering = {
    val nV  = stream.numVertices
    val clu = Array.fill(nV)(-1)
    val deg = new Array[Int](nV)
    val divided = new Array[Boolean](nV)
    val mirrors = new java.util.HashMap[Int, ArrayBuffer[Int]]()
    val vol = new ArrayBuffer[Long]()

    @inline def newCluster(): Int = { vol += 0L; vol.length - 1 }

    val src = stream.src; val dst = stream.dst
    var i = 0
    while (i < src.length) {
      val u = src(i); val v = dst(i)
      // allocation: unseen vertices start as singleton clusters
      if (clu(u) < 0) clu(u) = newCluster()
      if (clu(v) < 0) clu(v) = newCluster()
      deg(u) += 1; deg(v) += 1
      vol(clu(u)) += 1; vol(clu(v)) += 1

      if (splitting) {
        // splitting: the vertex that overflowed its cluster moves to a
        // fresh cluster with its accumulated degree, leaving a mirror;
        // in BFS order its subsequent edges build the fresh cluster
        // around it (paper Fig. 2).
        if (vol(clu(u)) >= vMax) split(u, clu, deg, vol, divided, mirrors)
        if (vol(clu(v)) >= vMax) split(v, clu, deg, vol, divided, mirrors)
      }

      // migration: pull the endpoint in the smaller cluster into the
      // bigger one, if neither cluster is full (Holl's heuristic). In
      // split mode we additionally require the target to absorb the
      // migrated degree without overflowing — otherwise vertices churn at
      // the V_max boundary (migrate in → overflow on the next edge →
      // split out), inflating cluster and replica counts (see DESIGN.md).
      // Holl has no splitting, hence no churn, hence no check (faithful).
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

    import scala.jdk.CollectionConverters._
    Clustering(clu, deg, divided,
      mirrors.asScala.map { case (k2, v2) => (k2.toInt, v2.toSeq) }.toMap,
      vol.length, vol.toArray)
  }

  @inline private def split(x: Int, clu: Array[Int], deg: Array[Int],
                            vol: ArrayBuffer[Long], divided: Array[Boolean],
                            mirrors: java.util.HashMap[Int, ArrayBuffer[Int]]): Unit = {
    val old = clu(x)
    vol += 0L
    val fresh = vol.length - 1
    clu(x) = fresh
    divided(x) = true
    vol(old) -= deg(x)
    vol(fresh) += deg(x)
    var lst = mirrors.get(x)
    if (lst == null) { lst = new ArrayBuffer[Int](); mirrors.put(x, lst) }
    lst += old
  }

  /** The cluster multigraph of a clustering of `stream`, its adjacency
    * accumulated in one boxed `HashMap` per cluster and frozen to arrays in
    * the map's iteration order. */
  def clusterGraph(stream: EdgeStream, clustering: ClusteringResult): ClusterGraph = {
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

  /** Pass 2 in consecutive-id batches of `batchSize`, each batch allocating
    * O(m) state and playing every id it holds. */
  def parallelGame(cg: ClusterGraph, k: Int, lambda: Double,
                   batchSize: Int = 6400, threads: Int = 8, seed: Long = 17,
                   maxRounds: Int = ClusterPartitioning.MaxRounds,
                   init: InitStrategy = RangeInit): ClusterPartitioningResult = {
    val m = cg.numClusters
    if (m == 0) return ClusterPartitioningResult(Array.emptyIntArray, 0, 0)
    val batches = (0 until m).grouped(math.max(1, batchSize)).map(_.toArray).toArray
    val pool    = Executors.newFixedThreadPool(math.max(1, threads))
    try {
      val futures = batches.zipWithIndex.map { case (ids, bi) =>
        pool.submit(new Callable[ClusterPartitioningResult] {
          def call(): ClusterPartitioningResult =
            gameOn(cg, ids, k, lambda, seed + bi, maxRounds, init)
        })
      }
      val out = new Array[Int](m)
      var rounds = 0L; var moves = 0L
      futures.zip(batches).foreach { case (f, ids) =>
        val r = f.get()
        var i = 0
        while (i < ids.length) { out(ids(i)) = r.assignment(ids(i)); i += 1 }
        rounds += r.rounds; moves += r.moves
      }
      ClusterPartitioningResult(out, rounds, moves)
    } finally { pool.shutdown(); pool.awaitTermination(1, TimeUnit.MINUTES) }
  }

  private def gameOn(cg: ClusterGraph, ids: Array[Int], k: Int, lambda: Double,
                     seed: Long, maxRounds: Int,
                     init: InitStrategy): ClusterPartitioningResult = {
    val m = cg.numClusters
    val part = Array.fill(m)(-1)
    val inBatch = new Array[Boolean](m)
    ids.foreach(inBatch(_) = true)

    // initial strategies (deterministic)
    val load = new Array[Long](k)
    init match {
      case RandomInit =>
        val rnd = new scala.util.Random(seed)
        ids.foreach { c => val p = rnd.nextInt(k); part(c) = p; load(p) += cg.sizes(c) }
      case RangeInit =>
        // contiguous id ranges with ≈ equal cluster volume per partition
        val total = math.max(1L, ids.map(cg.sizes).sum)
        var cum = 0L
        ids.foreach { c =>
          val p = math.min(k - 1, (cum * k / total).toInt)
          part(c) = p; load(p) += cg.sizes(c); cum += cg.sizes(c)
        }
    }

    val wToPart = new Array[Long](k) // cut edges from c to clusters currently in p
    var rounds = 0L; var moves = 0L
    var changed = true
    while (changed && rounds < maxRounds) {
      changed = false
      rounds += 1
      var idx = 0
      while (idx < ids.length) {
        val c = ids(idx)
        // bucket neighbor weights by the neighbors' current partition
        java.util.Arrays.fill(wToPart, 0L)
        val nIds = cg.neighborIds(c); val nW = cg.neighborWeights(c)
        var j = 0
        while (j < nIds.length) {
          val nb = nIds(j)
          if (inBatch(nb)) wToPart(part(nb)) += nW(j)
          j += 1
        }
        val cur = part(c)
        load(cur) -= cg.sizes(c) // evaluate all k choices with c removed
        var best = 0; var bestCost = Double.MaxValue; var curCost = Double.MaxValue
        var p = 0
        while (p < k) {
          // |a_i| includes c_i itself; cut cost = ½·(incident cut edges
          // to clusters outside p) with both directions pre-summed in w
          val cost = lambda / k * cg.sizes(c) * (load(p) + cg.sizes(c)) +
            0.5 * (cg.cutDegree(c) - wToPart(p))
          if (cost < bestCost) { best = p; bestCost = cost }
          if (p == cur) curCost = cost
          p += 1
        }
        // move only on a strict improvement so the dynamics terminate
        // (exact potential game: each move lowers Φ by the same amount)
        val next = if (bestCost < curCost - 1e-9) best else cur
        load(next) += cg.sizes(c)
        if (next != cur) { part(c) = next; moves += 1; changed = true }
        idx += 1
      }
    }
    ClusterPartitioningResult(part, rounds, moves)
  }

  /** Pass 3 (Algorithm 1) with a boxed map of each divided vertex's mirror
    * partitions. */
  def transform(stream: EdgeStream, clustering: Clustering,
                clusterPart: Array[Int], k: Int, tau: Double): Array[Int] = {
    val nE = stream.numEdges
    require(tau >= 1.0, s"imbalance factor must be >= 1, got $tau")
    // ceil so k·L_max ≥ |E| — a below-threshold partition always exists
    val lMax = math.max(1L, math.ceil(tau * nE / k.toDouble).toLong)
    val load = new Array[Long](k)
    val out  = new Array[Int](nE)
    val clu = clustering.clu; val deg = clustering.deg; val divided = clustering.divided
    var spill = 0 // rotates so overflow spills spread over partitions

    // partitions holding a mirror of each divided vertex (Algorithm 1
    // line 19: an edge can ride an existing mirror instead of minting a
    // new replica); O(#splits) ints, built by joining pass-1 mirrors
    // with the pass-2 cluster placement
    val mirrorParts: Map[Int, Array[Int]] =
      clustering.mirrorClusters.map { case (v, cs) =>
        (v, cs.map(clusterPart).distinct.toArray)
      }
    val noParts = Array.emptyIntArray
    @inline def hasMirrorAt(x: Int, p: Int): Boolean = {
      val ps = mirrorParts.getOrElse(x, noParts)
      var j = 0
      while (j < ps.length) { if (ps(j) == p) return true; j += 1 }
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

  /** The three reference passes and the reference cluster graph, chained as
    * [[Clugp.passes]] chains them; the edge → partition assignment. */
  def run(stream: EdgeStream, k: Int, cfg: ClugpConfig = ClugpConfig()): Array[Int] = {
    val vMax = math.max(2L, (cfg.vMaxFactor * stream.numEdges / k).toLong)
    val clustering = cluster(stream, vMax, cfg.splitting)
    val cg = clusterGraph(stream, clusteringResult(clustering.clu, clustering.deg,
      clustering.divided, clustering.mirrorClusters, clustering.numClusters, clustering.volumes))
    val lambda = cg.lambdaMax(k) * (cfg.weight / (1.0 - cfg.weight))
    val placed = cfg.gameMode match {
      case ParallelGame(b, t) => parallelGame(cg, k, lambda, b, t, cfg.seed, init = cfg.init)
      case GreedyPlacement    => ClusterPartitioning.greedy(cg, k)
    }
    transform(stream, clustering, placed.assignment, k, cfg.tau)
  }
}
