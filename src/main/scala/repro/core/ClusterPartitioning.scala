package repro.core

import java.util.concurrent.{Callable, Executors, TimeUnit}

/** Result of the second CLUGP pass.
  *
  * @param assignment cluster id → partition id (the `⟨c_i, p_j⟩` table)
  * @param rounds best-response rounds until Nash equilibrium, summed over
  *               batches (for the paper's round-complexity claims)
  * @param moves  total strategy changes performed
  */
final case class ClusterPartitioningResult(assignment: Array[Int], rounds: Long, moves: Long)

/** Initial strategy profile of the cluster partitioning game. */
sealed trait InitStrategy
/** Uniform random partition per cluster (paper Algorithm 3 line 2). */
case object RandomInit extends InitStrategy
/** Volume-balanced contiguous id ranges: clustering preserves graph
  * locality (§V-D — adjacent cluster ids are structurally adjacent), so
  * starting from contiguous ranges hands best-response a low-cut,
  * balanced profile to refine instead of a scattered one. */
case object RangeInit extends InitStrategy

/** Second CLUGP pass: map clusters to the k partitions (paper §V).
  *
  * Clusters are players of an exact potential game; each best-responds by
  * choosing the partition minimizing its individual cost (Equation 11)
  *
  *   φ(a_i) = λ/k · |c_i| · |a_i|  +  ½ (e(c_i, V∖a_i) + e(V∖a_i, c_i))
  *
  * until no player can improve — a pure Nash equilibrium, which exists
  * because the game admits the exact potential function of Definition 4.
  * Parallel mode groups clusters into consecutive-id batches (clustering
  * preserves locality, §V-D) and lets a thread pool drive an independent
  * game per batch.
  */
object ClusterPartitioning {

  /** Default cap on best-response rounds. Theorem 6 bounds rounds by the
    * number of cut edges; in practice convergence is a handful of rounds,
    * and the cap only guards pathological floating-point cost ties. */
  val MaxRounds = 200

  /** Paper §V-D parallel mode: consecutive raw-id ranges of `batchSize`
    * cluster ids, each an independent game run on `threads` threads.
    * Each batch balances its own clusters over the same k logical
    * partitions using only intra-batch structure, and keeps O(batchSize + k)
    * state (its slice of the result, its players, k loads and k cut
    * weights), matching the paper's per-thread accounting. Only clusters
    * with intra or cut edges play (see [[ClusterGraph.isPlayer]]). One
    * batch on one thread (`batchSize = Int.MaxValue`, `threads = 1`) is
    * the sequential game over all clusters.
    */
  def parallelGame(cg: ClusterGraph, k: Int, lambda: Double,
                   batchSize: Int = 6400, threads: Int = 8, seed: Long = 17,
                   maxRounds: Int = MaxRounds,
                   init: InitStrategy = RangeInit): ClusterPartitioningResult = {
    require(k >= 1, s"number of partitions must be >= 1, got $k")
    val m = cg.numClusters
    if (m == 0) return ClusterPartitioningResult(Array.emptyIntArray, 0, 0)
    val b = math.max(1, batchSize).toLong
    val numBatches = ((m + b - 1) / b).toInt
    val out  = new Array[Int](m)
    val pool = Executors.newFixedThreadPool(math.max(1, threads))
    try {
      val futures = Array.tabulate(numBatches) { bi =>
        val lo = (bi * b).toInt; val hi = math.min(m.toLong, lo + b).toInt
        pool.submit(new Callable[ClusterPartitioningResult] {
          def call(): ClusterPartitioningResult =
            gameOn(cg, lo, hi, k, lambda, seed + bi, maxRounds, init, out)
        })
      }
      var rounds = 0L; var moves = 0L
      futures.foreach { f => val r = f.get(); rounds += r.rounds; moves += r.moves }
      ClusterPartitioningResult(out, rounds, moves)
    } finally { pool.shutdown(); pool.awaitTermination(1, TimeUnit.MINUTES) }
  }

  /** The CLUGP-G ablation (Fig. 9): skip the game; greedily place each
    * cluster, largest first, on the currently smallest partition. */
  def greedy(cg: ClusterGraph, k: Int): ClusterPartitioningResult = {
    require(k >= 1, s"number of partitions must be >= 1, got $k")
    val m = cg.numClusters
    val out = new Array[Int](m)
    val load = new Array[Long](k)
    (0 until m).sortBy(c => -cg.sizes(c)).foreach { c =>
      var best = 0; var p = 1
      while (p < k) { if (load(p) < load(best)) best = p; p += 1 }
      out(c) = best; load(best) += cg.sizes(c)
    }
    ClusterPartitioningResult(out, 0, 0)
  }

  /** Best-response dynamics restricted to the cluster ids `[lo, hi)`;
    * clusters outside the batch are invisible (their load and cut edges
    * are not counted), so batches need no shared mutable state. The
    * batch's strategies live in `part(lo until hi)`, which no other batch
    * touches; the result carries `part` with this batch's rounds and moves.
    */
  private def gameOn(cg: ClusterGraph, lo: Int, hi: Int, k: Int, lambda: Double,
                     seed: Long, maxRounds: Int, init: InitStrategy,
                     part: Array[Int]): ClusterPartitioningResult = {
    val sizes = cg.sizes

    // initial strategies (deterministic), for every id of the range
    val load = new Array[Long](k)
    init match {
      case RandomInit =>
        val rnd = new scala.util.Random(seed)
        var c = lo
        while (c < hi) { val p = rnd.nextInt(k); part(c) = p; load(p) += sizes(c); c += 1 }
      case RangeInit =>
        // contiguous id ranges with ≈ equal cluster volume per partition
        var total = 0L
        var c = lo
        while (c < hi) { total += sizes(c); c += 1 }
        total = math.max(1L, total)
        var cum = 0L
        c = lo
        while (c < hi) {
          val p = math.min(k - 1, (cum * k / total).toInt)
          part(c) = p; load(p) += sizes(c); cum += sizes(c)
          c += 1
        }
    }

    // Only players best-respond. Any other id has no intra and no cut
    // edges, so it costs 0 on every partition and the strict-improvement
    // rule below can never move it; it adds no load and is nobody's
    // neighbour, so skipping it leaves every round and move unchanged.
    val players = {
      val ps = new Array[Int](hi - lo)
      var n = 0; var c = lo
      while (c < hi) { if (cg.isPlayer(c)) { ps(n) = c; n += 1 }; c += 1 }
      java.util.Arrays.copyOf(ps, n)
    }

    val wToPart = new Array[Long](k) // cut edges from c to clusters currently in p
    var rounds = 0L; var moves = 0L
    var changed = true
    while (changed && rounds < maxRounds) {
      changed = false
      rounds += 1
      var idx = 0
      while (idx < players.length) {
        val c = players(idx)
        // bucket neighbor weights by the neighbors' current partition
        java.util.Arrays.fill(wToPart, 0L)
        val nIds = cg.neighborIds(c); val nW = cg.neighborWeights(c)
        var j = 0
        while (j < nIds.length) {
          val nb = nIds(j)
          if (lo <= nb && nb < hi) wToPart(part(nb)) += nW(j)
          j += 1
        }
        val cur = part(c)
        load(cur) -= sizes(c) // evaluate all k choices with c removed
        var best = 0; var bestCost = Double.MaxValue; var curCost = Double.MaxValue
        var p = 0
        while (p < k) {
          // |a_i| includes c_i itself; cut cost = ½·(incident cut edges
          // to clusters outside p) with both directions pre-summed in w
          val cost = lambda / k * sizes(c) * (load(p) + sizes(c)) +
            0.5 * (cg.cutDegree(c) - wToPart(p))
          if (cost < bestCost) { best = p; bestCost = cost }
          if (p == cur) curCost = cost
          p += 1
        }
        // move only on a strict improvement so the dynamics terminate
        // (exact potential game: each move lowers Φ by the same amount)
        val next = if (bestCost < curCost - 1e-9) best else cur
        load(next) += sizes(c)
        if (next != cur) { part(c) = next; moves += 1; changed = true }
        idx += 1
      }
    }
    ClusterPartitioningResult(part, rounds, moves)
  }
}
