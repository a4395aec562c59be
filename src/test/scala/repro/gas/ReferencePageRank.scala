package repro.gas

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}

import BlockGraph.only

/** The reference for [[GasEngine.pageRank]]: the loop it replaced, which
  * ends every superstep with a driver job that collects each master block's
  * dangling mass and sums it in block order, then passes the sum into the
  * next superstep's apply, on the two-exchange superstep of [[TwoExchange]].
  * Tests assert the engine's ranks are bitwise equal to its ranks.
  */
object ReferencePageRank {

  /** `(v, rank)` of every vertex of `assigned`, ascending by `v`. */
  def ranks(spark: SparkSession, assigned: DataFrame, iters: Int = 10,
            damping: Double = 0.85): Array[(Long, Double)] = {
    val g = BlockGraph.load(spark, assigned, undirected = false)
    try {
      val n = g.numVertices.toDouble
      var ranks = g.keep(g.masters.map(mb => Array.fill(mb.ids.length)(1.0 / n)))
      var dangling = danglingMass(g, ranks)
      var it = 0
      while (it < iters && n > 0) {
        val next = g.keep(TwoExchange.superstep(g, ranks)((_, _) => 0.0, scatterRank, gatherSum,
          applyRank((1.0 - damping) / n, damping, dangling / n)))
        dangling = danglingMass(g, next)
        g.drop(ranks)
        ranks = next
        it += 1
      }
      g.masters.zipPartitions(ranks)((ms, rs) => Iterator((only(ms).ids, only(rs)))).collect()
        .flatMap { case (ids, r) => ids.zip(r) }.sortBy(_._1)
    } finally g.release()
  }

  /** Rank mass on vertices without out-edges, summed in block order. */
  private def danglingMass(g: BlockGraph, ranks: RDD[Array[Double]]): Double =
    g.masters.zipPartitions(ranks) { (ms, rs) =>
      val (mb, r) = (only(ms), only(rs))
      var sum = 0.0
      var v = 0
      while (v < r.length) { if (mb.outDeg(v) == 0) sum += r(v); v += 1 }
      Iterator(sum)
    }.collect().sum

  private def scatterRank(mb: MasterBlock, r: Array[Double], b: Int): Array[Double] = {
    val route = mb.outRoute(b)
    val out = new Array[Double](route.length)
    var i = 0
    while (i < route.length) { out(i) = r(route(i)) / mb.outDeg(route(i)); i += 1 }
    out
  }

  private def gatherSum(eb: EdgeBlock, vals: Array[Double]): Array[Double] = {
    val acc = new Array[Double](eb.numReplicas)
    var e = 0
    while (e < eb.numEdges) { acc(eb.rep(e)) += vals(eb.src(e)); e += 1 }
    acc
  }

  private def applyRank(base: Double, damping: Double, danglingShare: Double)(
      mb: MasterBlock, r: Array[Double], partials: Array[Array[Double]], unused: Double): Array[Double] = {
    val acc = new Array[Double](r.length)
    var b = 0
    while (b < partials.length) {
      val route = mb.inRoute(b); val msg = partials(b)
      var i = 0
      while (i < msg.length) { acc(route(i)) += msg(i); i += 1 }
      b += 1
    }
    var v = 0
    while (v < acc.length) { acc(v) = base + damping * (acc(v) + danglingShare); v += 1 }
    acc
  }
}
