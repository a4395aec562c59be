package repro.gas

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types.{DataType, DoubleType, LongType, StructField, StructType}

import repro.Blocks.writeColumns
import BlockGraph.only

/** PowerGraph-like Gather-Apply-Scatter engine over a vertex-cut
  * placement, on the primitive-array blocks of [[BlockGraph]].
  *
  * Each iteration is the GAS two-level aggregation: a *local* gather per
  * (vertex, partition) — the work each distributed node does on its own
  * edges — then a combine of the partials across partitions. Spark ships
  * each partial in one hop to every block that needs its vertex, where
  * PowerGraph's mirror→master→mirror takes two; Fig. 8's message counts
  * come from [[GasTopology]]'s model of the latter. Values are identical to
  * a single-machine run, while costs (max per-partition edges, mirror
  * messages) come from the placement. Partials are folded in sender order,
  * so results are bitwise identical from call to call. Every block a call
  * caches is released before it returns, except the returned result.
  */
object GasEngine {

  /** PageRank over the placement.
    *
    * Standard normalized formulation with dangling-mass redistribution:
    * `r'(v) = (1−d)/n + d·(Σ_{u→v} r(u)/outdeg(u) + dangling/n)`.
    * Ranks sum to 1 every iteration. The dangling mass rides each
    * superstep's exchange, so the supersteps chain lazily, one Spark stage
    * each, and all of them run in the one job that materializes the result,
    * with no state cached between them.
    *
    * @param assigned DataFrame `(id, src, dst, part)`
    * @return DataFrame `(v, rank)` for every vertex in the graph
    */
  def pageRank(spark: SparkSession, assigned: DataFrame, iters: Int = 10,
               damping: Double = 0.85): DataFrame = {
    require(iters >= 0, s"iters must be >= 0, got $iters")
    require(damping >= 0.0 && damping <= 1.0, s"damping must be in [0, 1], got $damping")
    val g = BlockGraph.load(spark, assigned, undirected = false)
    try {
      val n = g.numVertices.toDouble
      var ranks = g.blocks.map(b => Array.fill(b.size)(1.0 / n))
      var it = 0
      while (it < iters && n > 0) {
        ranks = g.superstep(ranks)(danglingMass, gatherRank, applyRank((1.0 - damping) / n, damping, n))
        it += 1
      }
      resultDF(spark, g.result(ranks), "rank", DoubleType)
    } finally g.release()
  }

  /** Connected components (edges treated as undirected, as PowerGraph's
    * CC does): iterated min-label propagation until a fixpoint.
    *
    * @return DataFrame `(v, component)` where component is the minimum
    *         vertex id of the component, and the number of iterations run
    */
  def connectedComponents(spark: SparkSession, assigned: DataFrame,
                          maxIters: Int = 50): (DataFrame, Int) = {
    require(maxIters >= 0, s"maxIters must be >= 0, got $maxIters")
    val g = BlockGraph.load(spark, assigned, undirected = true)
    try {
      var labels = g.keep(g.blocks.map(vertexIds))
      var it = 0
      var converged = g.numVertices == 0
      while (it < maxIters && !converged) {
        val next = g.keep(g.superstep(labels)((_, _) => 0.0, gatherMin, applyMin))
        val changed = labels.zipPartitions(next) { (as, bs) =>
          val (a, b) = (only(as), only(bs))
          Iterator(a.indices.count(i => a(i) != b(i)).toLong)
        }.collect().sum
        g.drop(labels)
        labels = next
        converged = changed == 0
        it += 1
      }
      (resultDF(spark, g.result(labels), "component", LongType), it)
    } finally g.release()
  }

  /** Rank mass on the block's masters without out-edges, in `ids` order. */
  private def danglingMass(b: Block, r: Array[Double]): Double = {
    val outDeg = b.master.outDeg
    var sum = 0.0
    var v = 0
    while (v < outDeg.length) { if (outDeg(v) == 0) sum += r(v); v += 1 }
    sum
  }

  private def gatherRank(b: Block, r: Array[Double]): Array[Array[Double]] = {
    val eb = b.edges
    val acc = new Array[Double](eb.numReplicas)
    var e = 0
    while (e < eb.numEdges) {
      val u = eb.src(e)
      acc(eb.rep(e)) += r(b.at(u)) / b.srcDeg(u)
      e += 1
    }
    b.shipped(acc)
  }

  private def applyRank(base: Double, damping: Double, n: Double)(
      b: Block, partials: Array[Array[Double]], dangling: Double): Array[Double] = {
    val acc = new Array[Double](b.size)
    var s = 0
    while (s < partials.length) {
      val route = b.recv(s); val msg = partials(s)
      var i = 0
      while (i < msg.length) { acc(route(i)) += msg(i); i += 1 }
      s += 1
    }
    val danglingShare = dangling / n
    var v = 0
    while (v < acc.length) { acc(v) = base + damping * (acc(v) + danglingShare); v += 1 }
    acc
  }

  /** The vertex id of each of the block's values. */
  private def vertexIds(b: Block): Array[Long] = {
    val ids = java.util.Arrays.copyOf(b.master.ids, b.size)
    var s = 0
    while (s < b.at.length) { if (b.at(s) >= 0) ids(b.at(s)) = b.edges.vids(s); s += 1 }
    ids
  }

  /** Edges are loaded both ways, so a replica's vertex is a source of the
    * same block: each partial starts from the vertex's own label. */
  private def gatherMin(b: Block, c: Array[Long]): Array[Array[Long]] = {
    val eb = b.edges
    val acc = new Array[Long](eb.numReplicas)
    var r = 0
    while (r < acc.length) { acc(r) = c(b.at(eb.repVertex(r))); r += 1 }
    var e = 0
    while (e < eb.numEdges) {
      val r = eb.rep(e)
      acc(r) = math.min(acc(r), c(b.at(eb.src(e))))
      e += 1
    }
    b.shipped(acc)
  }

  private def applyMin(b: Block, partials: Array[Array[Long]], unused: Double): Array[Long] = {
    val next = Array.fill(b.size)(Long.MaxValue)
    var s = 0
    while (s < partials.length) {
      val route = b.recv(s); val msg = partials(s)
      var i = 0
      while (i < msg.length) { next(route(i)) = math.min(next(route(i)), msg(i)); i += 1 }
      s += 1
    }
    next
  }

  /** Rows `(v, name)` of the result blocks, values of `valueType` unboxed. */
  private def resultDF[A](spark: SparkSession, blocks: RDD[(Array[Long], Array[A])], name: String,
                          valueType: DataType): DataFrame =
    writeColumns(spark, blocks.map { case (ids, values) => Seq(ids, values) },
      StructType(Seq(StructField("v", LongType, nullable = false),
        StructField(name, valueType, nullable = false))))

  /** Exact driver-side PageRank reference (same formulation) for
    * correctness checks of the GAS path. */
  def pageRankReference(src: Array[Int], dst: Array[Int], nV: Int,
                        iters: Int = 10, damping: Double = 0.85): Array[Double] = {
    val outDeg = new Array[Int](nV)
    src.foreach(outDeg(_) += 1)
    var r = Array.fill(nV)(1.0 / nV)
    var it = 0
    while (it < iters) {
      val acc = new Array[Double](nV)
      var i = 0
      while (i < src.length) { acc(dst(i)) += r(src(i)) / outDeg(src(i)); i += 1 }
      var dangling = 0.0
      var v = 0
      while (v < nV) { if (outDeg(v) == 0) dangling += r(v); v += 1 }
      val next = new Array[Double](nV)
      v = 0
      while (v < nV) {
        next(v) = (1.0 - damping) / nV + damping * (acc(v) + dangling / nV)
        v += 1
      }
      r = next; it += 1
    }
    r
  }
}
