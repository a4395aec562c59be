package repro.gas

import scala.reflect.ClassTag

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Blocks.bySender

import BlockGraph.only

/** The reference protocol for [[BlockGraph.superstep]]: the two-exchange
  * superstep it replaced, mirror→master then master→mirror as in
  * PowerGraph, over per-master-block state, with the master-side scatter
  * and apply of connected components that ran on it. [[ReferencePageRank]]
  * and [[TwoExchange.components]] run on it; tests assert the engine's
  * results are bitwise equal to theirs.
  */
object TwoExchange {

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
  def superstep[V: ClassTag, A: ClassTag](g: BlockGraph, state: RDD[V])(
      global: (MasterBlock, V) => Double,
      scatter: (MasterBlock, V, Int) => Array[A],
      gather: (EdgeBlock, Array[A]) => Array[A],
      apply: (MasterBlock, V, Array[Array[A]], Double) => V): RDD[V] = {
    import g.{edges, masters}
    val p = edges.getNumPartitions
    val partitioner = new HashPartitioner(p)
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

  /** `(v, component)` of every vertex of `assigned`, ascending by `v`, and
    * the number of iterations run: the connected-components loop of the
    * engine on the two-exchange superstep. */
  def components(spark: SparkSession, assigned: DataFrame, maxIters: Int = 50): (Array[(Long, Long)], Int) = {
    val g = BlockGraph.load(spark, assigned, undirected = true)
    try {
      var labels = g.keep(g.masters.map(_.ids))
      var it = 0
      var converged = g.numVertices == 0
      while (it < maxIters && !converged) {
        val next = g.keep(superstep(g, labels)((_, _) => 0.0, scatterLabel, gatherMin, applyMin))
        val changed = labels.zipPartitions(next) { (as, bs) =>
          val (a, b) = (only(as), only(bs))
          Iterator(a.indices.count(i => a(i) != b(i)).toLong)
        }.collect().sum
        g.drop(labels)
        labels = next
        converged = changed == 0
        it += 1
      }
      val out = g.masters.zipPartitions(labels)((ms, ls) => Iterator((only(ms).ids, only(ls)))).collect()
      (out.flatMap { case (ids, c) => ids.zip(c) }.sortBy(_._1), it)
    } finally g.release()
  }

  private def scatterLabel(mb: MasterBlock, c: Array[Long], b: Int): Array[Long] = {
    val route = mb.outRoute(b)
    val out = new Array[Long](route.length)
    var i = 0
    while (i < route.length) { out(i) = c(route(i)); i += 1 }
    out
  }

  private def gatherMin(eb: EdgeBlock, vals: Array[Long]): Array[Long] = {
    val acc = Array.fill(eb.numReplicas)(Long.MaxValue)
    var e = 0
    while (e < eb.numEdges) {
      val r = eb.rep(e)
      acc(r) = math.min(acc(r), vals(eb.src(e)))
      e += 1
    }
    acc
  }

  private def applyMin(mb: MasterBlock, c: Array[Long], partials: Array[Array[Long]],
                       unused: Double): Array[Long] = {
    val next = c.clone()
    var b = 0
    while (b < partials.length) {
      val route = mb.inRoute(b); val msg = partials(b)
      var i = 0
      while (i < msg.length) { next(route(i)) = math.min(next(route(i)), msg(i)); i += 1 }
      b += 1
    }
    next
  }
}
