package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.Blocks.{LongIndex, bySender, countingSort, readLongs, requireNoNull}

/** A materialized edge stream: the paper's `G_S = {e_1 … e_|E|}`.
  *
  * Vertex ids are dense 0-based ints (remapped from the generator's
  * 1-based longs); edges are stored column-wise so the single-pass
  * streaming partitioners touch primitive arrays only. Order of the
  * arrays IS the stream order.
  *
  * @param src source vertex of each edge, in stream order
  * @param dst destination vertex of each edge, in stream order
  * @param numVertices number of distinct vertices (= max id + 1)
  */
final class EdgeStream(val src: Array[Int], val dst: Array[Int], val numVertices: Int) {
  require(src.length == dst.length, "src/dst length mismatch")

  /** Number of edges |E|. */
  def numEdges: Int = src.length

  /** Out+in degree of every vertex over the whole stream. */
  lazy val degrees: Array[Int] = {
    val d = new Array[Int](numVertices)
    var i = 0
    while (i < src.length) { d(src(i)) += 1; d(dst(i)) += 1; i += 1 }
    d
  }

  /** The stream with edges in a deterministic pseudo-random order — the
    * paper runs HDRF/Greedy/Hashing/DBH on random order ("best order for
    * each competitor", §VI-A).
    */
  def shuffled(seed: Long): EdgeStream = {
    val n    = numEdges
    val perm = Array.tabulate(n)(identity)
    val rnd  = new scala.util.Random(seed)
    var i = n - 1
    while (i > 0) { // Fisher–Yates
      val j = rnd.nextInt(i + 1)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i -= 1
    }
    val s2 = new Array[Int](n); val d2 = new Array[Int](n)
    i = 0
    while (i < n) { s2(i) = src(perm(i)); d2(i) = dst(perm(i)); i += 1 }
    new EdgeStream(s2, d2, numVertices)
  }

  /** Prefix of the stream (first `n` edges), for tests on a smaller
    * graph. */
  def take(n: Int): EdgeStream = {
    val m = math.min(n, numEdges)
    new EdgeStream(src.take(m), dst.take(m), numVertices)
  }
}

object EdgeStream {

  /** Build the stream in generator id order from a generator DataFrame
    * with columns `(src, dst, id)`: edges are sorted by `(src, id)`, so
    * sources ascend and each source's edges follow by id (host-sorted,
    * since a host is one block of ids; not a BFS traversal), and vertex
    * ids are remapped to dense 0-based ints in first-appearance order.
    * Edges with equal `(src, id)` keep the order in which the DataFrame's
    * partitions hold them.
    *
    * Each task reads its partition as primitive columns and sorts it; the
    * driver merges the sorted runs and relabels.
    *
    * @throws IllegalArgumentException if a `src`, `dst` or `id` is null, or
    *         there are more than `Int.MaxValue` edges, or more than
    *         `LongIndex.MaxKeys` (2²⁹) vertices, or sources or ids in one
    *         partition
    */
  def fromDF(edges: DataFrame): EdgeStream = {
    val run = readSorted(edges)
    relabel(run.src, run.dst)
  }

  /** The edges of [[fromDF]] in stream order, before the relabel.
    * @throws IllegalArgumentException as [[fromDF]] */
  private[repro] def readSorted(edges: DataFrame): SortedRun = {
    val runs = readLongs(edges, Columns).map { case (columns, nullColumn) => (sorted(columns), nullColumn) }
      .collect()
    requireNoNull(runs.map(_._2))
    merge(runs.map(_._1))
  }

  /** The slices of distributed CLUGP (paper §III-C, last ¶): the stream
    * order of `edges` cut into `numSlices` contiguous `(src, id)` ranges at
    * bounds from a fixed sample, every 256th edge of each input partition in
    * read order, so every call cuts the same slices. Each task sorts its
    * partition as [[fromDF]] does and ships the pieces between bounds to
    * their slices; each slice with edges merges its pieces, ties in input
    * partition order, and relabels them as a local stream.
    * @throws IllegalArgumentException as [[fromDF]] */
  private[core] def slices(edges: DataFrame, numSlices: Int): RDD[(SortedRun, EdgeStream)] = {
    val read = readLongs(edges, Columns)
    val samples = read.map { case (columns, nullColumn) =>
      val every = Array.range(0, columns(0).length, 256)
      (every.map(columns(0)), every.map(columns(2)), nullColumn)
    }.collect()
    requireNoNull(samples.map(_._3))
    val (src, id) = (samples.flatMap(_._1), samples.flatMap(_._2))
    val order = stableOrder(src, id)
    val bounds = if (order.isEmpty) Array.emptyIntArray
                 else Array.tabulate(numSlices - 1)(j => order(((j + 1L) * order.length / numSlices).toInt))
    val (boundSrc, boundId) = (bounds.map(src), bounds.map(id))
    val inputs = read.getNumPartitions
    read.mapPartitionsWithIndex { (from, cs) =>
      cs.flatMap(c => cut(sorted(c._1), boundSrc, boundId).map { case (slice, piece) => (slice, (from, piece)) })
    }.partitionBy(new HashPartitioner(numSlices)).mapPartitions { pieces =>
      val run = merge(bySender(inputs, pieces).filter(_ != null))
      if (run.size == 0) Iterator.empty else Iterator((run, relabel(run.src, run.dst)))
    }
  }

  private val Columns = Seq("src", "dst", "id")

  /** Edges sorted by `(src, id)`, in columns. */
  private[repro] final class SortedRun(val src: Array[Long], val dst: Array[Long], val id: Array[Long])
      extends Serializable {
    def size: Int = src.length
    def slice(from: Int, until: Int): SortedRun =
      new SortedRun(src.slice(from, until), dst.slice(from, until), id.slice(from, until))
  }

  /** One partition's `(src, dst, id)` sorted by `(src, id)`, ties in
    * partition order. */
  private def sorted(columns: Array[Array[Long]]): SortedRun = {
    val Array(src, dst, id) = columns
    val order = stableOrder(src, id)
    new SortedRun(permute(src, order), permute(dst, order), permute(id, order))
  }

  private def permute(a: Array[Long], order: Array[Int]): Array[Long] = {
    val out = new Array[Long](order.length)
    var i = 0
    while (i < order.length) { out(i) = a(order(i)); i += 1 }
    out
  }

  /** `run` cut at the bounds `(boundSrc(j), boundId(j))`, ascending: the
    * non-empty pieces keyed by slice, where slice `j` holds the keys
    * `(src, id)` above bound `j − 1` and up to bound `j`. */
  private def cut(run: SortedRun, boundSrc: Array[Long], boundId: Array[Long]): Iterator[(Int, SortedRun)] = {
    val start = new Array[Int](boundSrc.length + 2) // slice j is start(j) until start(j + 1)
    for (j <- boundSrc.indices) {
      var e = start(j)
      while (e < run.size && (run.src(e) < boundSrc(j) || run.src(e) == boundSrc(j) && run.id(e) <= boundId(j)))
        e += 1
      start(j + 1) = e
    }
    start(boundSrc.length + 1) = run.size
    (0 to boundSrc.length).iterator.filter(j => start(j + 1) > start(j))
      .map(j => (j, run.slice(start(j), start(j + 1))))
  }

  /** Positions `0 until src.length` sorted by `(src, id)`, ties in position
    * order: two stable counting passes, by id rank and then by src rank.
    * Where the ids never decrease, as the generator emits them, position
    * order is already id order and the src pass alone is enough. */
  private def stableOrder(src: Array[Long], id: Array[Long]): Array[Int] = {
    val byId =
      if ((1 until id.length).forall(e => id(e - 1) <= id(e))) Array.range(0, src.length)
      else {
        val (idRank, idCount) = denseRanks(id, "edge ids")
        countingSort(Array.range(0, src.length), idRank, idCount)
      }
    val (srcRank, srcCount) = denseRanks(src, "sources")
    countingSort(byId, srcRank, srcCount)
  }

  /** The rank of each value of `a` among its distinct values, and their
    * count; only the distinct values are sorted. */
  private def denseRanks(a: Array[Long], what: String): (Array[Int], Int) = {
    val index = new LongIndex(what, a.length)
    val out = new Array[Int](a.length)
    var e = 0
    while (e < a.length) { out(e) = index.add(a(e)); e += 1 }
    val rank = index.ranks
    e = 0
    while (e < a.length) { out(e) = rank(out(e)); e += 1 }
    (out, index.size)
  }

  /** Merges the runs k ways by `(src, id)`, ties in run order. */
  private def merge(runs: Array[SortedRun]): SortedRun = {
    val n = intCount("edges", runs.map(_.size.toLong).sum)
    val src = new Array[Long](n); val dst = new Array[Long](n); val id = new Array[Long](n)
    val pos = new Array[Int](runs.length)
    def before(a: Int, b: Int): Boolean = {
      val sa = runs(a).src(pos(a))
      val sb = runs(b).src(pos(b))
      if (sa != sb) sa < sb
      else {
        val ia = runs(a).id(pos(a))
        val ib = runs(b).id(pos(b))
        if (ia != ib) ia < ib else a < b
      }
    }
    // binary min-heap of the runs not yet drained, by their head edge
    val heap = runs.indices.filter(runs(_).size > 0).toArray
    var size = heap.length
    def siftDown(from: Int): Unit = {
      var i = from
      var done = false
      while (!done) {
        var m = i
        val l = 2 * i + 1
        if (l < size && before(heap(l), heap(m))) m = l
        if (l + 1 < size && before(heap(l + 1), heap(m))) m = l + 1
        if (m == i) done = true
        else { val t = heap(i); heap(i) = heap(m); heap(m) = t; i = m }
      }
    }
    for (i <- size / 2 - 1 to 0 by -1) siftDown(i)
    var e = 0
    while (size > 0) {
      val r = heap(0)
      src(e) = runs(r).src(pos(r)); dst(e) = runs(r).dst(pos(r)); id(e) = runs(r).id(pos(r))
      e += 1
      pos(r) += 1
      if (pos(r) == runs(r).size) { size -= 1; heap(0) = heap(size) }
      siftDown(0)
    }
    new SortedRun(src, dst, id)
  }

  /** Dense 0-based ids by first appearance along the stream, the source of
    * an edge before its destination. */
  private[repro] def relabel(src: Array[Long], dst: Array[Long]): EdgeStream = {
    val label = new LongIndex("vertices")
    val s = new Array[Int](src.length); val d = new Array[Int](src.length)
    var e = 0
    while (e < src.length) { s(e) = label.add(src(e)); d(e) = label.add(dst(e)); e += 1 }
    new EdgeStream(s, d, label.size)
  }

  /** `n` as an array length.
    *
    * @throws IllegalArgumentException if `n > Int.MaxValue`
    */
  private[core] def intCount(what: String, n: Long): Int = {
    require(n <= Int.MaxValue, s"$n $what exceed Int.MaxValue")
    n.toInt
  }
}
