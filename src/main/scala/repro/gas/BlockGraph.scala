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
  * Local vertices are grouped by master block, so the values a master block
  * sends land in one contiguous slot range, and the replicas too, so the
  * partials for one master block are one contiguous range. Edges are sorted
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
  *                  groupStart(2m + 1)`, where the values `m` sends are
  *                  copied; its other vertices follow, up to `groupStart(2m + 2)`
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
  *                 mastered here, in `b`'s slot order — the values sent to `b`
  * @param inRoute  per edge block `b`, positions in `ids` of `b`'s replicas
  *                 mastered here, in replica order — the partials `b` sends
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
}

/** A vertex-cut graph loaded into `P = defaultParallelism` edge blocks and
  * `P` master blocks, GraphX-style: GAS partition `part` lives in edge
  * block `part % P`, the master of vertex `v` in master block `v % P`.
  * Edges never move after load; a superstep ships one value array and one
  * scalar per (master block, edge block) pair, and one partial array and
  * `P` scalars back.
  *
  * Every RDD the graph caches is released by [[release]].
  */
private[gas] final class BlockGraph private (
    p: Int,
    edges: RDD[EdgeBlock],
    val masters: RDD[MasterBlock],
    val numVertices: Long) {
  import BlockGraph.only

  private val partitioner = new HashPartitioner(p)
  private val cached = ArrayBuffer[RDD[_]](edges, masters)

  /** Caches `rdd` until [[drop]] or [[release]]. */
  def keep[A](rdd: RDD[A]): RDD[A] = { cached += rdd.persist(); rdd }

  def drop(rdd: RDD[_]): Unit = { cached -= rdd; rdd.unpersist(blocking = false) }

  def release(): Unit = { cached.foreach(_.unpersist(blocking = false)); cached.clear() }

  /** One gather–apply round over per-master-block state `V`, with
    * messages of `A` values and one scalar summed over all master blocks.
    *
    * Every master block sends every edge block its scalar with its values,
    * and every edge block forwards all `P` scalars to every master block with
    * its partials, so the sum reaches each master block inside the round's
    * two shuffles: rounds chain lazily, and no round needs a driver action.
    *
    * @param global  master block `m`'s share of the scalar, from its state
    * @param scatter the values master block `m` sends to edge block `b`,
    *                one per `m.outRoute(b)` entry
    * @param gather  an edge block's local gather: from one value per slot
    *                (set for sources only) to one partial per replica
    * @param apply   a master block's update from its state, the partials of
    *                each edge block (empty where none), indexed by block,
    *                and the scalar summed in master block order
    */
  def superstep[V: ClassTag, A: ClassTag](state: RDD[V])(
      global: (MasterBlock, V) => Double,
      scatter: (MasterBlock, V, Int) => Array[A],
      gather: (EdgeBlock, Array[A]) => Array[A],
      apply: (MasterBlock, V, Array[Array[A]], Double) => V): RDD[V] = {
    val p = this.p
    val toMirrors = masters.zipPartitions(state) { (ms, vs) =>
      val mb = only(ms); val v = only(vs)
      val share = global(mb, v)
      (0 until p).iterator.map(b => (b, (mb.id, (share, scatter(mb, v, b)))))
    }.partitionBy(partitioner)
    val toMasters = edges.zipPartitions(toMirrors) { (es, msgs) =>
      val eb = only(es)
      val shares = new Array[Double](p)
      val vals = new Array[A](eb.vids.length)
      val in = bySender(p, msgs)
      for (m <- 0 until p) {
        val (share, values) = in(m)
        shares(m) = share
        System.arraycopy(values, 0, vals, eb.groupStart(2 * m), values.length)
      }
      val acc = gather(eb, vals)
      (0 until p).iterator.map(m => (m, (eb.id, (shares, acc.slice(eb.repStart(m), eb.repStart(m + 1))))))
    }.partitionBy(partitioner)
    masters.zipPartitions(state, toMasters) { (ms, vs, msgs) =>
      val in = bySender(p, msgs)
      Iterator(apply(only(ms), only(vs), in.map(_._2), in(0)._1.sum))
    }
  }

  /** `(ids, values)` of each master block, cached (not released with the
    * graph) and materialized. */
  def result[V: ClassTag](state: RDD[V]): RDD[(Array[Long], V)] = {
    val out = masters.zipPartitions(state)((ms, vs) => Iterator((only(ms).ids, only(vs))))
      .persist()
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
    val n = masters.map(_.ids.length.toLong).collect().sum
    rejected.value.asScala.headOption.foreach { why =>
      edges.unpersist(blocking = false); masters.unpersist(blocking = false)
      throw new IllegalArgumentException(why)
    }
    new BlockGraph(p, edges, masters, n)
  }

  /** The one block of a partition; reading its iterator to the end
    * releases the cache lock on it. */
  def only[A](it: Iterator[A]): A = {
    val a = it.next()
    assert(!it.hasNext, "a partition holds one block")
    a
  }
}
