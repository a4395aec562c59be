package repro.partitioners

import repro.core.{EdgeStream, PartitionTransformation, ReplicaTable}

/** PowerGraph's Greedy heuristic (the paper's "Greedy"): place each edge
  * to minimize new replicas, tie-broken by load, under a hard capacity
  * bound (the paper reports relative balance 1.0 for every algorithm).
  * Needs the full replica table and partition loads — high quality, high
  * time/space cost.
  */
final class GreedyPartitioner extends StreamingPartitioner {
  override val name = "Greedy"

  override protected def assign(stream: EdgeStream, k: Int): (Array[Int], Long) = {
    val nV = stream.numVertices
    val A = new ReplicaTable(nV, k)
    val load = new Array[Long](k)
    val capacity = PartitionTransformation.lMax(stream.numEdges, k, Capacity.Tau)
    val out = new Array[Int](stream.numEdges)
    var i = 0
    while (i < out.length) {
      val u = stream.src(i); val v = stream.dst(i)
      val uE = A.isEmpty(u); val vE = A.isEmpty(v)
      // the min-loaded partition is always eligible (placing on the
      // minimum can never worsen relative balance), which keeps tiny
      // streams from degenerating under the hard capacity
      var minLoad = Long.MaxValue
      var q = 0
      while (q < k) { if (load(q) < minLoad) minLoad = load(q); q += 1 }
      var best = -1; var bestLoad = Long.MaxValue
      @inline def consider(p: Int): Unit =
        if ((load(p) < capacity || load(p) == minLoad) && load(p) < bestLoad) {
          best = p; bestLoad = load(p)
        }

      if (!uE || !vE) {
        // least-loaded partition already holding both, else either
        var p = 0
        while (p < k) {
          if (A.contains(u, p) && A.contains(v, p)) consider(p)
          p += 1
        }
        if (best < 0) {
          p = 0
          while (p < k) {
            if (A.contains(u, p) || A.contains(v, p)) consider(p)
            p += 1
          }
        }
      }
      if (best < 0) { // new endpoints, or all candidates at capacity
        var p = 0; while (p < k) { consider(p); p += 1 }
      }
      out(i) = best
      A.add(u, best); A.add(v, best)
      load(best) += 1
      i += 1
    }
    (out, A.spaceBytes + 8L * k)
  }
}

/** HDRF (Petroni et al., CIKM'15) — the paper's state-of-the-art
  * baseline: High-Degree (vertices are) Replicated First. Scores every
  * partition per edge with a replication term favouring partitions that
  * already hold the *lower*-degree endpoint, plus a load-balance term of
  * weight [[HdrfPartitioner.LambdaBal]], under the hard capacity bound.
  */
final class HdrfPartitioner extends StreamingPartitioner {
  import HdrfPartitioner.LambdaBal

  override val name = "HDRF"

  override protected def assign(stream: EdgeStream, k: Int): (Array[Int], Long) = {
    val nV = stream.numVertices
    val A = new ReplicaTable(nV, k)
    val deg = new Array[Int](nV) // partial degrees
    val load = new Array[Long](k)
    val capacity = PartitionTransformation.lMax(stream.numEdges, k, Capacity.Tau)
    val out = new Array[Int](stream.numEdges)
    val eps = 1.0
    var maxLoad = 0L; var minLoad = 0L
    var i = 0
    while (i < out.length) {
      val u = stream.src(i); val v = stream.dst(i)
      deg(u) += 1; deg(v) += 1
      val du = deg(u).toDouble; val dv = deg(v).toDouble
      val thetaU = du / (du + dv)
      var best = -1; var bestScore = Double.MinValue
      var p = 0
      while (p < k) {
        // min-loaded partitions stay eligible even at capacity, so tiny
        // streams don't degenerate under the hard bound
        if (load(p) < capacity || load(p) == minLoad) {
          // C_rep: 1 + (1 − θ) for each endpoint already on p — the
          // high-degree endpoint contributes less, so it gets cut first
          var cRep = 0.0
          if (A.contains(u, p)) cRep += 1.0 + (1.0 - thetaU)
          if (A.contains(v, p)) cRep += 1.0 + thetaU
          val cBal = (maxLoad - load(p)).toDouble / (eps + (maxLoad - minLoad).toDouble)
          val score = cRep + LambdaBal * cBal
          if (score > bestScore) { bestScore = score; best = p }
        }
        p += 1
      }
      out(i) = best
      A.add(u, best); A.add(v, best)
      load(best) += 1
      if (load(best) > maxLoad) maxLoad = load(best)
      var q = 0; minLoad = Long.MaxValue
      while (q < k) { if (load(q) < minLoad) minLoad = load(q); q += 1 }
      i += 1
    }
    (out, A.spaceBytes + 4L * nV + 8L * k)
  }
}

object HdrfPartitioner {
  /** HDRF's balance weight λ, 1.0 as in VGP. Every score is then ≥ 0 and a
    * least-loaded partition is always eligible, so each edge finds one. */
  val LambdaBal = 1.0
}

/** The hard capacity bound of Greedy and HDRF: L_max at τ = [[Capacity.Tau]]. */
private object Capacity {
  /** τ = 1.02: the paper reports relative balance 1.0 for every algorithm. */
  val Tau = 1.02
}
