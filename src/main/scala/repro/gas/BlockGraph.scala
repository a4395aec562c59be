package repro.gas

import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}
import scala.jdk.CollectionConverters._
import scala.reflect.ClassTag

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Blocks.{LongIndex, bySender, countingSort, readLongs}

/** The edges of the GAS partitions `part ≡ id (mod P)`, in primitive arrays.
  *
  * Local vertices are grouped by master block, and the replicas too, so
  * what a master block tells the block at load lands in one contiguous slot
  * range and one contiguous replica range. Edges are sorted
  * by (replica, src), so the layout depends only on the block's edge set,
  * never on the order the input delivered it.
  *
  * @param vids      local vertex index: every endpoint of the block, sorted
  *                  by (master block, not a source, id)
  * @param src       per edge, slot of its source in `vids`
  * @param rep       per edge, its dst replica, keyed by (master block,
  *                  part, dst)
  * @param repVertex per replica, slot of its vertex in `vids`
  * @param groupStart slot offsets of the `2P` vertex groups: the sources
  *                  mastered by `m` are `groupStart(2m) until
  *                  groupStart(2m + 1)`; its other vertices follow, up to
  *                  `groupStart(2m + 2)`
  * @param repStart  replicas of vertices mastered by `m` are
  *                  `repStart(m) until repStart(m + 1)`
  */
private[gas] final class EdgeBlock(
    val id: Int,
    val vids: Array[Long],
    val src: Array[Int],
    val rep: Array[Int],
    val repVertex: Array[Int],
    val groupStart: Array[Int],
    val repStart: Array[Int]) extends Serializable {

  def numEdges: Int = src.length
  def numReplicas: Int = repVertex.length
}

private[gas] object EdgeBlock {

  /** Builds block `id` of `p` from the edge arrays routed to it. Endpoints
    * and replica keys get dense ids from one index each; only their distinct
    * values are sorted, and the edges are ordered by two counting passes. */
  def build(id: Int, p: Int, parts: Iterator[(Array[Long], Array[Long], Array[Int])]): EdgeBlock = {
    val chunks = parts.toArray
    val srcIds = Array.concat(chunks.map(_._1).toIndexedSeq: _*)
    val dstIds = Array.concat(chunks.map(_._2).toIndexedSeq: _*)
    val part = Array.concat(chunks.map(_._3).toIndexedSeq: _*)
    val ne = srcIds.length
    // sources first, so vertex ids below `sources` are the sources
    val vertices = new LongIndex("vertices", ne)
    val srcV = new Array[Int](ne)
    val dstV = new Array[Int](ne)
    var e = 0
    while (e < ne) { srcV(e) = vertices.add(srcIds(e)); e += 1 }
    val sources = vertices.size
    e = 0
    while (e < ne) { dstV(e) = vertices.add(dstIds(e)); e += 1 }

    // slot order: group 2m holds the sources mastered by m, group 2m+1 the
    // rest, each by id
    val byId = vertices.sortedKeys
    val idOf = byId.map(vertices(_))
    def group(i: Int) = 2 * masterOf(byId(i), p) + (if (idOf(i) < sources) 0 else 1)
    val groupStart = new Array[Int](2 * p + 1)
    byId.indices.foreach(i => groupStart(group(i) + 1) += 1)
    for (g <- 1 to 2 * p) groupStart(g) += groupStart(g - 1)
    val slot = new Array[Int](byId.length)
    val vids = new Array[Long](byId.length)
    val fill = groupStart.clone()
    var i = 0
    while (i < byId.length) {
      val g = group(i)
      slot(idOf(i)) = fill(g); vids(fill(g)) = byId(i); fill(g) += 1
      i += 1
    }

    // replica keys (part, dst slot), ordered by master block of dst, then key
    val replicas = new LongIndex("replicas", ne)
    val repV = new Array[Int](ne)
    e = 0
    while (e < ne) { repV(e) = replicas.add((part(e).toLong << 32) | slot(dstV(e))); e += 1 }
    val keys = replicas.sortedKeys
    val master = keys.map(k => masterOf(vids(k.toInt), p))
    val byMaster = countingSort(Array.range(0, keys.length), master, p)
    val repStart = new Array[Int](p + 1)
    master.foreach(m => repStart(m + 1) += 1)
    for (m <- 1 to p) repStart(m) += repStart(m - 1)
    val repOf = new Array[Int](keys.length)
    val repVertex = new Array[Int](keys.length)
    var r = 0
    while (r < keys.length) {
      val k = keys(byMaster(r))
      repOf(replicas(k)) = r; repVertex(r) = k.toInt
      r += 1
    }

    // edges by (replica, src slot)
    val srcSlot = new Array[Int](ne)
    val edgeRep = new Array[Int](ne)
    e = 0
    while (e < ne) { srcSlot(e) = slot(srcV(e)); edgeRep(e) = repOf(repV(e)); e += 1 }
    val order = countingSort(countingSort(Array.range(0, ne), srcSlot, vids.length), edgeRep, keys.length)
    val src = new Array[Int](ne)
    val rep = new Array[Int](ne)
    e = 0
    while (e < ne) { src(e) = srcSlot(order(e)); rep(e) = edgeRep(order(e)); e += 1 }
    new EdgeBlock(id, vids, src, rep, repVertex, groupStart, repStart)
  }

  /** The master block of vertex `v`. */
  def masterOf(v: Long, p: Int): Int = java.lang.Math.floorMod(v, p.toLong).toInt
}

/** The masters of the vertices `v ≡ id (mod P)` and the routing table that
  * links them to their replicas in each edge block.
  *
  * @param ids      sorted vertex ids
  * @param outDeg   global out-degree of each vertex
  * @param outRoute per edge block `b`, positions in `ids` of `b`'s sources
  *                 mastered here, in `b`'s slot order
  * @param inRoute  per edge block `b`, positions in `ids` of `b`'s replicas
  *                 mastered here, in replica order
  */
private[gas] final class MasterBlock(
    val id: Int,
    val ids: Array[Long],
    val outDeg: Array[Int],
    val outRoute: Array[Array[Int]],
    val inRoute: Array[Array[Int]]) extends Serializable

private[gas] object MasterBlock {

  /** What edge block `b` tells master block `m` at load: its sources
    * mastered by `m` in slot order with their local out-degrees, its other
    * vertices mastered by `m`, and the vertex of each of its replicas
    * mastered by `m`. */
  type Announce = (Array[Long], Array[Int], Array[Long], Array[Long])

  def announce(b: EdgeBlock, p: Int): Iterator[(Int, (Int, Announce))] = {
    val deg = new Array[Int](b.vids.length)
    b.src.foreach(deg(_) += 1)
    val g = b.groupStart
    (0 until p).iterator.map { m =>
      (m, (b.id, (b.vids.slice(g(2 * m), g(2 * m + 1)), deg.slice(g(2 * m), g(2 * m + 1)),
        b.vids.slice(g(2 * m + 1), g(2 * m + 2)),
        b.repVertex.slice(b.repStart(m), b.repStart(m + 1)).map(b.vids))))
    }.filter { case (m, _) => g(2 * m + 2) > g(2 * m) }
  }

  /** Builds master block `id` of `p` from the announcements of the edge
    * blocks. Its vertices get dense ids from one index; only their distinct
    * values are sorted, and each route entry is one index lookup. */
  def build(id: Int, p: Int, msgs: Iterator[(Int, (Int, Announce))]): MasterBlock = {
    val from = bySender[Announce](p, msgs)
    val vertices = new LongIndex("vertices", from.filter(_ != null).map(a => a._1.length + a._3.length).sum)
    for (a <- from if a != null) { a._1.foreach(vertices.add); a._3.foreach(vertices.add) }
    val ids = vertices.sortedKeys
    val pos = new Array[Int](ids.length)
    ids.indices.foreach(i => pos(vertices(ids(i))) = i)
    def positions(vs: Array[Long]) = vs.map(v => pos(vertices(v)))
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

  /** What master block `m` tells block `x` at load: the global out-degree
    * of `x`'s sources mastered by `m`, in slot order; per block `c`, which
    * of `x`'s replicas mastered by `m` ship their partial to `c` (indices
    * into `m.inRoute(x)`); and per block `b`, where each partial `b` ships
    * `x` for a vertex mastered by `m` folds (a position in `m.ids` if
    * `m == x`, else in `m.outRoute(x)`). A replica's partial goes to every
    * block where its vertex is a source, and to the vertex's master block. */
  type Directions = (Array[Int], Array[Array[Int]], Array[Array[Int]])

  def directions(mb: MasterBlock, p: Int): Iterator[(Int, (Int, Directions))] = {
    // per block c, each vertex's position in outRoute(c), -1 if not a source there
    val at = mb.outRoute.map { route =>
      val a = Array.fill(mb.ids.length)(-1)
      route.indices.foreach(j => a(route(j)) = j)
      a
    }
    val sendTo = Array.fill(p, p)(new ArrayBuilder.ofInt) // (sender)(receiver)
    val recvFrom = Array.fill(p, p)(new ArrayBuilder.ofInt) // (receiver)(sender)
    for (b <- 0 until p; k <- mb.inRoute(b).indices; c <- 0 until p) {
      val i = mb.inRoute(b)(k)
      if (c == mb.id || at(c)(i) >= 0) {
        sendTo(b)(c).addOne(k)
        recvFrom(c)(b).addOne(if (c == mb.id) i else at(c)(i))
      }
    }
    (0 until p).iterator.map { x =>
      (x, (mb.id, (mb.outRoute(x).map(mb.outDeg), sendTo(x).map(_.result()), recvFrom(x).map(_.result()))))
    }
  }
}

/** Block `b` of the one-exchange superstep: edge block `b`, master block
  * `b` and the routes to the other blocks. It keeps one value per vertex
  * it needs: the vertices it masters, in `master.ids` order, then its
  * sources mastered elsewhere, in slot order.
  *
  * @param srcDeg per slot, the global out-degree of its vertex
  * @param at     per slot, the index of its vertex's value; -1 if the
  *               vertex is not a source here
  * @param size   the number of values
  * @param send   per block `c`, the replicas whose partials go to `c`
  * @param recv   per block `c`, the value each partial from `c` folds into
  */
private[gas] final class Block(
    val edges: EdgeBlock,
    val master: MasterBlock,
    val srcDeg: Array[Int],
    val at: Array[Int],
    val size: Int,
    val send: Array[Array[Int]],
    val recv: Array[Array[Int]]) extends Serializable {

  /** The partials of `acc`, one per replica, that go to each block. */
  def shipped[@specialized(Long, Double) A: ClassTag](acc: Array[A]): Array[Array[A]] =
    send.map { route =>
      val out = new Array[A](route.length)
      var i = 0
      while (i < route.length) { out(i) = acc(route(i)); i += 1 }
      out
    }
}

private[gas] object Block {

  /** Builds block `eb.id` of `p` from its edge and master blocks and the
    * directions of every master block. */
  def build(eb: EdgeBlock, mb: MasterBlock, p: Int, msgs: Iterator[(Int, (Int, MasterBlock.Directions))]): Block = {
    val (x, g) = (eb.id, eb.groupStart)
    val srcDeg = new Array[Int](eb.vids.length)
    val at = Array.fill(eb.vids.length)(-1)
    var size = mb.ids.length
    val send = Array.fill(p)(new ArrayBuilder.ofInt)
    val recv = Array.fill(p)(new ArrayBuilder.ofInt)
    val from = bySender[MasterBlock.Directions](p, msgs)
    for (m <- 0 until p) {
      val (deg, sendTo, recvFrom) = from(m)
      for (j <- deg.indices) {
        srcDeg(g(2 * m) + j) = deg(j)
        at(g(2 * m) + j) = if (m == x) mb.outRoute(x)(j) else { size += 1; size - 1 }
      }
      for (c <- 0 until p) sendTo(c).foreach(k => send(c).addOne(eb.repStart(m) + k))
      for (b <- 0 until p) recvFrom(b).foreach(j => recv(b).addOne(if (m == x) j else at(g(2 * m) + j)))
    }
    new Block(eb, mb, srcDeg, at, size, send.map(_.result()), recv.map(_.result()))
  }
}

/** A vertex-cut graph loaded into `P = defaultParallelism` blocks,
  * GraphX-style: GAS partition `part` lives in edge block `part % P`, the
  * master of vertex `v` in master block `v % P`, and [[Block]] `b` joins
  * edge block `b` with master block `b`. Edges never move after load; a
  * superstep is one exchange, in which every block ships every block its
  * scalar and the partials that block needs: one Spark stage.
  *
  * Every RDD the graph caches is released by [[release]].
  */
private[gas] final class BlockGraph private (
    p: Int,
    val edges: RDD[EdgeBlock],
    val masters: RDD[MasterBlock],
    val blocks: RDD[Block],
    val numVertices: Long) {
  import BlockGraph.only

  private val partitioner = new HashPartitioner(p)
  private val cached = ArrayBuffer[RDD[_]](edges, masters, blocks)

  /** Caches `rdd` until [[drop]] or [[release]]. */
  def keep[A](rdd: RDD[A]): RDD[A] = { cached += rdd.persist(); rdd }

  def drop(rdd: RDD[_]): Unit = { cached -= rdd; rdd.unpersist(blocking = false) }

  def release(): Unit = { cached.foreach(_.unpersist(blocking = false)); cached.clear() }

  /** One gather–apply round over the values of each [[Block]], with
    * partials of `A` and one scalar summed over all blocks, in one
    * exchange: each block ships every block its scalar and the partials that
    * block needs, and each receiver folds and applies them. New values
    * depend only on what was shipped, so rounds chain lazily, one Spark
    * stage each, with no driver action or cache between them.
    *
    * @param share  a block's share of the scalar
    * @param gather a block's partials for each block, one per `send` entry
    * @param apply  a block's new values from the partials, by sender, and
    *               the scalar summed in block order
    */
  def superstep[A: ClassTag](values: RDD[Array[A]])(
      share: (Block, Array[A]) => Double,
      gather: (Block, Array[A]) => Array[Array[A]],
      apply: (Block, Array[Array[A]], Double) => Array[A]): RDD[Array[A]] = {
    val p = this.p
    val msgs = blocks.zipPartitions(values) { (bs, vs) =>
      val b = only(bs); val v = only(vs)
      val (s, out) = (share(b, v), gather(b, v))
      (0 until p).iterator.map(c => (c, (b.edges.id, (s, out(c)))))
    }.partitionBy(partitioner)
    blocks.zipPartitions(msgs) { (bs, ms) =>
      val b = only(bs)
      val in = bySender(p, ms)
      Iterator(apply(b, in.map(_._2), in.map(_._1).sum))
    }
  }

  /** `(ids, values)` of each master block, cached (not released with the
    * graph) and materialized. */
  def result[A: ClassTag](values: RDD[Array[A]]): RDD[(Array[Long], Array[A])] = {
    val out = blocks.zipPartitions(values) { (bs, vs) =>
      val ids = only(bs).master.ids
      Iterator((ids, only(vs).slice(0, ids.length)))
    }.persist()
    out.count()
    out
  }
}

private[gas] object BlockGraph {

  /** Loads `(src, dst, part)` of `assigned` into blocks; with `undirected`
    * every edge is also loaded reversed, on the same GAS partition.
    *
    * @throws IllegalArgumentException on a null `src`, `dst` or `part`, or
    *         a partition id that is negative or outside the `Int` range
    */
  def load(spark: SparkSession, assigned: DataFrame, undirected: Boolean): BlockGraph = {
    val sc = spark.sparkContext
    val p = sc.defaultParallelism
    val partitioner = new HashPartitioner(p)
    // what the routing tasks reject, checked on the driver once the blocks are built
    val rejected = sc.collectionAccumulator[String]("rejected edges")
    val routed = readLongs(assigned, Seq("src", "dst", "part")).flatMap { case (columns, nullColumn) =>
      nullColumn.foreach(column => rejected.add(s"edge column $column holds a null"))
      val Array(srcs, dsts, parts) = columns
      val src = Array.fill(p)(new ArrayBuilder.ofLong)
      val dst = Array.fill(p)(new ArrayBuilder.ofLong)
      val part = Array.fill(p)(new ArrayBuilder.ofInt)
      def add(s: Long, d: Long, q: Int): Unit = {
        val b = java.lang.Math.floorMod(q, p)
        src(b).addOne(s); dst(b).addOne(d); part(b).addOne(q)
      }
      var outside = false
      var e = 0
      while (e < srcs.length) {
        val q = parts(e).toInt
        if ((q != parts(e) || q < 0) && !outside) {
          rejected.add(s"GAS partition id ${parts(e)} outside [0, Int.MaxValue]"); outside = true
        }
        add(srcs(e), dsts(e), q)
        if (undirected) add(dsts(e), srcs(e), q)
        e += 1
      }
      (0 until p).iterator.map(b => (b, (src(b).result(), dst(b).result(), part(b).result())))
        .filter(_._2._1.nonEmpty)
    }.partitionBy(partitioner)
    val edges = routed.mapPartitionsWithIndex((b, it) => Iterator(EdgeBlock.build(b, p, it.map(_._2))))
      .persist()
    val masters = edges.flatMap(MasterBlock.announce(_, p)).partitionBy(partitioner)
      .mapPartitionsWithIndex((m, it) => Iterator(MasterBlock.build(m, p, it)))
      .persist()
    val directions = masters.flatMap(MasterBlock.directions(_, p)).partitionBy(partitioner)
    val blocks = edges.zipPartitions(masters, directions)((es, ms, ds) => Iterator(Block.build(only(es), only(ms), p, ds)))
      .persist()
    val n = blocks.map(_.master.ids.length.toLong).collect().sum
    rejected.value.asScala.headOption.foreach { why =>
      Seq(edges, masters, blocks).foreach(_.unpersist(blocking = false))
      throw new IllegalArgumentException(why)
    }
    new BlockGraph(p, edges, masters, blocks, n)
  }

  /** The one block of a partition; reading its iterator to the end
    * releases the cache lock on it. */
  def only[A](it: Iterator[A]): A = {
    val a = it.next()
    assert(!it.hasNext, "a partition holds one block")
    a
  }
}
