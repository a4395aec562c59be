package repro.gas

import scala.collection.mutable.ArrayBuilder

import repro.Blocks.bySender

/** The reference for [[EdgeBlock.build]]: the sort-and-search layout it
  * replaced, which sorts every endpoint and replica key and binary-searches
  * each edge's. Tests assert the index-based build gives exactly its arrays.
  */
object ReferenceEdgeBlock {
  import EdgeBlock.masterOf

  /** Builds block `id` of `p` from the edge arrays routed to it. */
  def build(id: Int, p: Int, parts: Iterator[(Array[Long], Array[Long], Array[Int])]): EdgeBlock = {
    val chunks = parts.toArray
    val srcIds = Array.concat(chunks.map(_._1).toIndexedSeq: _*)
    val dstIds = Array.concat(chunks.map(_._2).toIndexedSeq: _*)
    val part = Array.concat(chunks.map(_._3).toIndexedSeq: _*)
    val ne = srcIds.length
    val byId = sortedDistinct(Array.concat(srcIds, dstIds))
    val isSource = new Array[Boolean](byId.length)
    srcIds.foreach(v => isSource(java.util.Arrays.binarySearch(byId, v)) = true)

    // slot order: group 2m holds the sources mastered by m, group 2m+1 the rest
    def group(i: Int) = 2 * masterOf(byId(i), p) + (if (isSource(i)) 0 else 1)
    val groupStart = new Array[Int](2 * p + 1)
    byId.indices.foreach(i => groupStart(group(i) + 1) += 1)
    for (g <- 1 to 2 * p) groupStart(g) += groupStart(g - 1)
    val slot = new Array[Int](byId.length)
    val vids = new Array[Long](byId.length)
    val fill = groupStart.clone()
    var i = 0
    while (i < byId.length) {
      val g = group(i)
      slot(i) = fill(g); vids(fill(g)) = byId(i); fill(g) += 1
      i += 1
    }
    def slotOf(v: Long) = slot(java.util.Arrays.binarySearch(byId, v))

    // replica keys (part, dst slot) per master block of dst
    val repKeys = new Array[Long](ne)
    val perMaster = Array.fill(p)(new ArrayBuilder.ofLong)
    var e = 0
    while (e < ne) {
      repKeys(e) = (part(e).toLong << 32) | slotOf(dstIds(e))
      perMaster(masterOf(dstIds(e), p)).addOne(repKeys(e))
      e += 1
    }
    val reps = perMaster.map(b => sortedDistinct(b.result()))
    val repStart = reps.scanLeft(0)(_ + _.length)
    val edgeKeys = new Array[Long](ne)
    e = 0
    while (e < ne) {
      val m = masterOf(dstIds(e), p)
      val r = repStart(m) + java.util.Arrays.binarySearch(reps(m), repKeys(e))
      edgeKeys(e) = (r.toLong << 32) | slotOf(srcIds(e))
      e += 1
    }
    java.util.Arrays.sort(edgeKeys)
    val src = new Array[Int](ne)
    val rep = new Array[Int](ne)
    e = 0
    while (e < ne) {
      src(e) = edgeKeys(e).toInt
      rep(e) = (edgeKeys(e) >>> 32).toInt
      e += 1
    }
    new EdgeBlock(id, vids, src, rep, reps.flatMap(_.map(_.toInt)), groupStart, repStart)
  }

  /** Sorts `a` in place; returns its distinct values. */
  def sortedDistinct(a: Array[Long]): Array[Long] = {
    java.util.Arrays.sort(a)
    var n = 0
    var i = 0
    while (i < a.length) {
      if (n == 0 || a(i) != a(n - 1)) { a(n) = a(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(a, n)
  }
}

/** The reference for [[MasterBlock.build]]: the sort-and-search build it
  * replaced, which sorts every announced vertex id and binary-searches each
  * route entry. Tests assert the index-based build gives exactly its arrays.
  */
object ReferenceMasterBlock {
  import ReferenceEdgeBlock.sortedDistinct

  /** Builds master block `id` of `p` from the announcements of the edge blocks. */
  def build(id: Int, p: Int, msgs: Iterator[(Int, (Int, MasterBlock.Announce))]): MasterBlock = {
    val from = bySender[MasterBlock.Announce](p, msgs)
    val ids = sortedDistinct(Array.concat(
      from.filter(_ != null).flatMap(a => Seq(a._1, a._3)).toIndexedSeq: _*))
    def positions(vs: Array[Long]) = vs.map(java.util.Arrays.binarySearch(ids, _))
    val outDeg = new Array[Int](ids.length)
    val outRoute = Array.fill(p)(Array.emptyIntArray)
    val inRoute = Array.fill(p)(Array.emptyIntArray)
    for (b <- 0 until p if from(b) != null) {
      val (sources, deg, _, repIds) = from(b)
      outRoute(b) = positions(sources)
      outRoute(b).indices.foreach(i => outDeg(outRoute(b)(i)) += deg(i))
      inRoute(b) = positions(repIds)
    }
    new MasterBlock(id, ids, outDeg, outRoute, inRoute)
  }
}
