package repro.partitioners

import repro.core.EdgeStream

/** Mint (Hua et al., TPDS'19) — quasi-streaming game-theoretic edge
  * partitioning, reimplemented from the paper's description (the original
  * code is private; §VI-A obtained it "upon personal request").
  *
  * Edges arrive in batches; within a batch each edge is a player that
  * best-responds by picking the partition minimizing
  * `balance-cost − co-location-benefit`, where the benefit counts batch
  * edges sharing an endpoint currently on that partition. The batch game
  * iterates to (approximate) equilibrium, then commits. Only batch-local
  * endpoint counts plus the k partition loads are kept, so space is
  * O(batch size) — below CLUGP's O(2|V|), matching Fig. 6.
  *
  * Balance is enforced as a hard eligibility constraint (Mint treats the
  * capacity bound as part of the action space): an edge may only choose a
  * partition whose load is within a small slack of the current minimum.
  */
final class MintPartitioner extends StreamingPartitioner {
  import MintPartitioner.{BatchSize, Rounds}
  override val name = "Mint"
  override def preferredOrder: String = "bfs"

  override protected def assign(stream: EdgeStream, k: Int): (Array[Int], Long) = {
    val nE   = stream.numEdges
    val out  = new Array[Int](nE)
    val load = new Array[Long](k)
    // batch-local (vertex, partition) → #incident batch edges placed there
    val cnt = new java.util.HashMap[Long, Int]()
    @inline def key(v: Int, p: Int): Long = v.toLong * k + p
    @inline def bump(v: Int, p: Int, d: Int): Unit = {
      val merged = cnt.merge(key(v, p), d, (a, b) => a + b)
      if (merged == 0) cnt.remove(key(v, p))
    }
    @inline def get(v: Int, p: Int): Int = cnt.getOrDefault(key(v, p), 0)

    // hard balance slack: a partition is eligible only while its load is
    // within `slack` of the minimum (≈ half a batch's fair share)
    val slack = math.max(8L, BatchSize / (2L * k))
    val balNorm = math.max(1.0, nE.toDouble / k) // soft tiebreak scale
    var peakEntries = 0
    var start = 0
    while (start < nE) {
      val end = math.min(start + BatchSize, nE)
      cnt.clear()
      // initial strategies: least-loaded placement (feasible by construction)
      var i = start
      while (i < end) {
        var p0 = 0; var p = 1
        while (p < k) { if (load(p) < load(p0)) p0 = p; p += 1 }
        out(i) = p0
        bump(stream.src(i), p0, 1); bump(stream.dst(i), p0, 1)
        load(p0) += 1
        i += 1
      }
      // batch best-response dynamics over eligible partitions
      var r = 0; var changed = true
      while (r < Rounds && changed) {
        changed = false
        // the slack is lenient, so refreshing the floor once per round
        // (not per edge) keeps the balance bound while saving a k-scan
        var minLoad = Long.MaxValue
        var p0 = 0
        while (p0 < k) { if (load(p0) < minLoad) minLoad = load(p0); p0 += 1 }
        i = start
        while (i < end) {
          val u = stream.src(i); val v = stream.dst(i)
          val cur = out(i)
          bump(u, cur, -1); bump(v, cur, -1); load(cur) -= 1 // remove self
          var best = cur; var bestCost = Double.MaxValue
          var p = 0
          while (p < k) {
            if (load(p) - minLoad < slack || p == cur) {
              val cost = load(p) / balNorm - (get(u, p) + get(v, p)).toDouble
              if (cost < bestCost - 1e-12) { best = p; bestCost = cost }
            }
            p += 1
          }
          if (best != cur) changed = true
          out(i) = best
          bump(u, best, 1); bump(v, best, 1); load(best) += 1
          i += 1
        }
        r += 1
      }
      peakEntries = math.max(peakEntries, cnt.size())
      start = end
    }
    (out, 16L * peakEntries + 8L * k)
  }
}

object MintPartitioner {
  /** Edges per batch game. */
  val BatchSize = 4096
  /** Most best-response rounds per batch. */
  val Rounds = 3
}
