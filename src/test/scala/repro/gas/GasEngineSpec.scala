package repro.gas

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._

import org.apache.spark.{SpecBus, SpecConf}
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted,
  SparkListenerUnpersistRDD}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.{Clugp, EdgeStream, Metrics}
import repro.partitioners.HashingPartitioner
import repro.{SparkSpec, TestGraphs}

class GasEngineSpec extends SparkSpec {

  /** A re-densified prefix of the tiny graph, so numVertices == seen
    * vertices and the driver reference models the same vertex set. */
  private def prefixStream(n: Int): EdgeStream = {
    val t = TestGraphs.tiny(spark).take(n)
    TestGraphs.fromPairs(t.src.indices.map(i => (t.src(i).toLong, t.dst(i).toLong)))
  }

  private def assigned(k: Int) = {
    val s = prefixStream(4000)
    (s, Metrics.assignmentDF(spark, s, Clugp.run(s, k).part))
  }

  test("pageRank ranks sum to 1 every run") {
    val (_, df) = assigned(4)
    val ranks = GasEngine.pageRank(spark, df, iters = 5)
    val total = ranks.agg(sum("rank")).collect()(0).getDouble(0)
    assert(math.abs(total - 1.0) < 1e-6, s"sum=$total")
  }

  test("pageRank matches the exact driver reference") {
    val (s, df) = assigned(4)
    val ranks = GasEngine.pageRank(spark, df, iters = 10)
      .collect().map(r => (r.getLong(0).toInt, r.getDouble(1))).toMap
    val ref = GasEngine.pageRankReference(s.src, s.dst, s.numVertices, iters = 10)
    assert(ranks.keySet == (0 until s.numVertices).toSet)
    ref.indices.filter(v => ranks.contains(v)).foreach { v =>
      assert(math.abs(ranks(v) - ref(v)) < 1e-9, s"v=$v got ${ranks(v)} want ${ref(v)}")
    }
  }

  test("pageRank values are independent of the partitioning") {
    val s = prefixStream(3000)
    val a = Metrics.assignmentDF(spark, s, Clugp.run(s, 4).part)
    val b = Metrics.assignmentDF(spark, s, new HashingPartitioner().partition(s, 7).part)
    val ra = GasEngine.pageRank(spark, a, iters = 4).collect()
      .map(r => (r.getLong(0), r.getDouble(1))).toMap
    val rb = GasEngine.pageRank(spark, b, iters = 4).collect()
      .map(r => (r.getLong(0), r.getDouble(1))).toMap
    assert(ra.keySet == rb.keySet)
    ra.foreach { case (v, x) => assert(math.abs(x - rb(v)) < 1e-9) }
  }

  test("pageRank agrees with GraphX on a dangling-free graph") {
    // strongly-connected cycle avoids dangling-mass formulation differences
    val n = 50
    val s = TestGraphs.fromPairs(
      (0 until n).map(i => ((i + 1).toLong, ((i + 1) % n + 1).toLong)) ++
      (0 until n).map(i => ((i + 1).toLong, ((i + 3) % n + 1).toLong)))
    val df = Metrics.assignmentDF(spark, s, Clugp.run(s, 2).part)
    val ours = GasEngine.pageRank(spark, df, iters = 30)
      .collect().map(r => (r.getLong(0), r.getDouble(1))).toMap
    val gx = org.apache.spark.graphx.GraphLoader // touch the package to assert availability
    assert(gx != null)
    val edgesRdd = spark.sparkContext.parallelize(
      s.src.indices.map(i => org.apache.spark.graphx.Edge(s.src(i).toLong, s.dst(i).toLong, 1)))
    val g = org.apache.spark.graphx.Graph.fromEdges(edgesRdd, 1)
    val gxRanks = g.staticPageRank(30, 0.15).vertices.collect().toMap
    val gxSum = gxRanks.values.sum
    ours.foreach { case (v, r) =>
      assert(math.abs(r - gxRanks(v) / gxSum) < 1e-4,
        s"v=$v ours=$r graphx=${gxRanks(v) / gxSum}")
    }
  }

  test("connectedComponents matches the union-find reference") {
    val (s, df) = assigned(4)
    val (labels, iters) = GasEngine.connectedComponents(spark, df)
    assert(iters > 0)
    val got = labels.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toMap
    val ref = ReferenceComponents.labels(s.src, s.dst, s.numVertices)
    // compare component *partitions* (label choice may differ): group both
    val gotGroups = got.toSeq.groupBy(_._2).values.map(_.map(_._1).toSet).toSet
    val refGroups = ref.indices.filter(got.contains).groupBy(ref(_)).values.map(_.toSet).toSet
    assert(gotGroups == refGroups)
  }

  test("connectedComponents on disjoint cliques finds each clique") {
    val c1 = for (i <- 1L to 4L; j <- (i + 1) to 4L) yield (i, j)
    val c2 = for (i <- 11L to 13L; j <- (i + 1) to 13L) yield (i, j)
    val s = TestGraphs.fromPairs(c1 ++ c2)
    val df = Metrics.assignmentDF(spark, s, Array.fill(s.numEdges)(0))
    val (labels, _) = GasEngine.connectedComponents(spark, df)
    val comps = labels.select("component").distinct().count()
    assert(comps == 2)
  }

  test("pageRank handles dangling vertices (sinks) correctly") {
    // star into a sink: 1->4, 2->4, 3->4; 4 has no out-edges
    val s = TestGraphs.fromPairs(Seq((1L, 4L), (2L, 4L), (3L, 4L)))
    val df = Metrics.assignmentDF(spark, s, Array(0, 1, 0))
    val ranks = GasEngine.pageRank(spark, df, iters = 20)
      .collect().map(r => (r.getLong(0), r.getDouble(1))).toMap
    val ref = GasEngine.pageRankReference(s.src, s.dst, s.numVertices, iters = 20)
    ranks.foreach { case (v, r) => assert(math.abs(r - ref(v.toInt)) < 1e-9) }
    assert(math.abs(ranks.values.sum - 1.0) < 1e-9)
    // the sink holds the highest rank
    val sinkDense = s.dst(0)
    assert(ranks(sinkDense.toLong) == ranks.values.max)
  }

  test("pageRank and connectedComponents return no rows for an empty assignment") {
    val s = new EdgeStream(Array.emptyIntArray, Array.emptyIntArray, 0)
    val df = Metrics.assignmentDF(spark, s, Array.emptyIntArray)
    assert(GasEngine.pageRank(spark, df).count() == 0)
    val (labels, _) = GasEngine.connectedComponents(spark, df)
    assert(labels.count() == 0)
  }

  test("bad arguments fail with an IllegalArgumentException naming the value") {
    val (s, df) = assigned(2)
    def failsNaming(value: String)(body: => Any): Unit = {
      val e = intercept[IllegalArgumentException](body)
      assert(e.getMessage.contains(value), e.getMessage)
    }
    failsNaming("-1")(GasEngine.pageRank(spark, df, iters = -1))
    failsNaming("1.5")(GasEngine.pageRank(spark, df, damping = 1.5))
    failsNaming("-0.1")(GasEngine.pageRank(spark, df, damping = -0.1))
    failsNaming("-2")(GasEngine.connectedComponents(spark, df, maxIters = -2))
    val negative = Metrics.assignmentDF(spark, s, Array.tabulate(s.numEdges)(i => if (i == 7) -3 else 0))
    failsNaming("-3")(GasEngine.pageRank(spark, negative))
    failsNaming("-3")(GasEngine.connectedComponents(spark, negative))
  }

  test("pageRank and connectedComponents reject a null column and a part outside the Int range") {
    import spark.implicits._
    // real vertex ids 1–3: a null read as 0 would add a vertex 0
    def rows(bad: (Option[Long], Option[Long], Option[Long])) =
      Seq((Option(1L), Option(2L), Option(0L)), bad, (Option(3L), Option(1L), Option(1L)))
        .zipWithIndex.map { case ((s, d, q), i) => (i.toLong, s, d, q) }.toDF("id", "src", "dst", "part")
    val cases = Seq(
      "src" -> rows((None, Some(3L), Some(0L))),
      "dst" -> rows((Some(2L), None, Some(0L))),
      "part" -> rows((Some(2L), Some(3L), None)),
      "4294967296" -> rows((Some(2L), Some(3L), Some(1L << 32))))
    for ((named, df) <- cases) {
      val pr = intercept[IllegalArgumentException](GasEngine.pageRank(spark, df))
      assert(pr.getMessage.contains(named), pr.getMessage)
      val cc = intercept[IllegalArgumentException](GasEngine.connectedComponents(spark, df))
      assert(cc.getMessage.contains(named), cc.getMessage)
    }
  }

  /** What `call` returns, and the ids of the RDDs it leaves cached: those
    * cached in the stages it submits, less those it unpersists. Read from
    * listener events, so an RDD the garbage collector has reclaimed still
    * counts. */
  private def leftCached[A](call: => A): (A, Set[Int]) = {
    val sc = spark.sparkContext
    val cached = ConcurrentHashMap.newKeySet[Int]()
    val released = ConcurrentHashMap.newKeySet[Int]()
    val listener = new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        e.stageInfo.rddInfos.foreach(r => if (r.storageLevel.isValid) cached.add(r.id))
      override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit = released.add(e.rddId)
    }
    SpecBus.drain(sc)
    sc.addSparkListener(listener)
    val result = try { val a = call; SpecBus.drain(sc); a } finally sc.removeSparkListener(listener)
    (result, cached.asScala.toSet -- released.asScala)
  }

  /** Ids of the cached RDDs `df` is computed from. */
  private def cachedUnder(df: DataFrame): Set[Int] = {
    def walk(rdd: RDD[_]): Set[Int] =
      rdd.dependencies.map(d => walk(d.rdd)).foldLeft(
        if (rdd.getStorageLevel != StorageLevel.NONE) Set(rdd.id) else Set.empty[Int])(_ ++ _)
    walk(df.queryExecution.toRdd)
  }

  test("each call caches nothing but its result") {
    val (_, df) = assigned(4)
    val (ranks, afterRanks) = leftCached(GasEngine.pageRank(spark, df, iters = 3))
    assert(afterRanks.size == 1 && afterRanks == cachedUnder(ranks), s"$afterRanks")
    val ((labels, _), afterLabels) = leftCached(GasEngine.connectedComponents(spark, df))
    assert(afterLabels.size == 1 && afterLabels == cachedUnder(labels), s"$afterLabels")
    assert(ranks.count() > 0 && labels.count() > 0)
  }

  test("a rejected call caches nothing") {
    val s = prefixStream(4000)
    val negative = Metrics.assignmentDF(spark, s, Array.tabulate(s.numEdges)(i => if (i == 7) -3 else 0))
    assert(leftCached(intercept[IllegalArgumentException](GasEngine.pageRank(spark, negative)))._2.isEmpty)
    assert(leftCached(intercept[IllegalArgumentException](GasEngine.connectedComponents(spark, negative)))._2.isEmpty)
  }

  test("results are bitwise identical from call to call") {
    val (s, df) = assigned(4)
    def ranks(): Array[Double] = {
      val out = new Array[Double](s.numVertices)
      GasEngine.pageRank(spark, df, iters = 5).collect()
        .foreach(r => out(r.getLong(0).toInt) = r.getDouble(1))
      out
    }
    assert(java.util.Arrays.equals(ranks(), ranks()))
    def labels() = GasEngine.connectedComponents(spark, df)._1.collect()
      .map(r => (r.getLong(0), r.getLong(1))).sorted
    assert(labels().sameElements(labels()))
  }

  /** `(v, rank)` of every vertex, ascending by `v`. */
  private def engineRanks(df: DataFrame, iters: Int = 10): Array[(Long, Double)] =
    GasEngine.pageRank(spark, df, iters).collect().map(r => (r.getLong(0), r.getDouble(1))).sortBy(_._1)

  /** Asserts the engine's ranks equal, bit for bit, those of the loop with
    * one dangling-mass job per superstep. */
  private def assertReferenceRanks(df: DataFrame, clue: String): Unit = {
    val got = engineRanks(df)
    val want = ReferencePageRank.ranks(spark, df)
    assert(got.map(_._1).sameElements(want.map(_._1)), s"$clue: vertices")
    assert(java.util.Arrays.equals(got.map(_._2), want.map(_._2)), s"$clue: ranks")
  }

  test("pageRank runs the same few Spark jobs at any iteration count") {
    val (_, df) = assigned(4)
    val sc = spark.sparkContext
    def jobs(iters: Int): Int = {
      val started = new AtomicInteger
      val listener = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
      }
      SpecBus.drain(sc)
      sc.addSparkListener(listener)
      try {
        GasEngine.pageRank(spark, df, iters).collect()
        SpecBus.drain(sc)
        started.get
      } finally sc.removeSparkListener(listener)
    }
    val (two, twelve) = (jobs(2), jobs(12))
    assert(two == twelve, s"iters=2 ran $two jobs, iters=12 ran $twelve")
    assert(twelve <= 4, s"$twelve jobs")
  }

  test("pageRank ranks are bitwise those of the per-superstep dangling-mass loop") {
    for ((name, s) <- Seq("tiny" -> TestGraphs.tiny(spark), "tiny-social" -> TestGraphs.tinySocial(spark));
         k <- Seq(4, 64))
      assertReferenceRanks(Metrics.assignmentDF(spark, s, Clugp.run(s, k).part), s"$name k=$k")
  }

  test("pageRank ranks are bitwise the reference's with every edge on one GAS partition") {
    val s = prefixStream(3000)
    assert(s.src.distinct.length < s.numVertices, "the graph should have sinks")
    assertReferenceRanks(Metrics.assignmentDF(spark, s, Array.fill(s.numEdges)(0)), "one partition")
  }

  test("pageRank ranks are bitwise the reference's with empty master blocks") {
    // three vertices, all with ids ≡ 0 (mod P): every other master block is empty
    val p = spark.sparkContext.defaultParallelism.toLong
    val sparse = spark.createDataFrame(Seq((0L, 0L, p, 0), (1L, 0L, 2 * p, 1), (2L, p, 2 * p, 2)))
      .toDF("id", "src", "dst", "part")
    assertReferenceRanks(sparse, "sparse ids")
    // fewer vertices than P, with a sink
    val two = TestGraphs.fromPairs(Seq((1L, 2L)))
    assertReferenceRanks(Metrics.assignmentDF(spark, two, Array(3)), "two vertices")
  }

  test("pageRank over 60 supersteps sums to 1 and matches the driver reference") {
    val (s, df) = assigned(4)
    val ranks = engineRanks(df, iters = 60)
    assert(math.abs(ranks.map(_._2).sum - 1.0) < 1e-6, s"sum=${ranks.map(_._2).sum}")
    val ref = GasEngine.pageRankReference(s.src, s.dst, s.numVertices, iters = 60)
    assert(ranks.map(_._1).sameElements((0 until s.numVertices).map(_.toLong)))
    ranks.foreach { case (v, r) =>
      assert(math.abs(r - ref(v.toInt)) < 1e-9, s"v=$v got $r want ${ref(v.toInt)}")
    }
  }

  /** The number of stages `call` submits, and the ids of the RDDs cached
    * in them. */
  private def stagesRun(call: => Any): (Int, Set[Int]) = {
    val sc = spark.sparkContext
    val stages = new AtomicInteger
    val cached = ConcurrentHashMap.newKeySet[Int]()
    val listener = new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
        stages.incrementAndGet()
        e.stageInfo.rddInfos.foreach(r => if (r.storageLevel.isValid) cached.add(r.id))
      }
    }
    SpecBus.drain(sc)
    sc.addSparkListener(listener)
    try { call; SpecBus.drain(sc); (stages.get, cached.asScala.toSet) }
    finally sc.removeSparkListener(listener)
  }

  test("a pageRank superstep is one Spark stage") {
    val (_, df) = assigned(4)
    val (two, twelve) = (stagesRun(engineRanks(df, 2))._1, stagesRun(engineRanks(df, 12))._1)
    assert(twelve - two == 10, s"iters=2 ran $two stages, iters=12 ran $twelve")
  }

  test("pageRank caches the same RDDs at any iteration count") {
    val (_, df) = assigned(4)
    val (two, twelve) = (stagesRun(engineRanks(df, 2))._2, stagesRun(engineRanks(df, 12))._2)
    assert(two.size == twelve.size, s"iters=2 cached $two, iters=12 cached $twelve")
  }

  /** Edges `(src, dst, part)` on which, at P = 3 and at P = 4, one block
    * gets no edge and masters no vertex: vertex ids are ≡ 0, 1 or 10 and
    * parts ≡ 0, 1 or 6 (mod 12). A shuffled path, so labels need many
    * iterations to settle, and random edges among the other vertices. */
  private def oneEmptyBlock: DataFrame = {
    val rnd = new scala.util.Random(7)
    def id(v: Int) = 12L * (v / 3) + Array(0, 1, 10)(v % 3)
    val path = rnd.shuffle((0 until 40).toList)
    val edges = path.zip(path.tail) ++ Seq.fill(60)((40 + rnd.nextInt(50), 40 + rnd.nextInt(50)))
    spark.createDataFrame(edges.zipWithIndex.map { case ((u, v), e) =>
      (e.toLong, id(u), id(v), Array(0, 1, 6)(rnd.nextInt(3)))
    }).toDF("id", "src", "dst", "part")
  }

  test("connectedComponents labels are bitwise the two-exchange reference's at P = 3 and P = 4") {
    val df = oneEmptyBlock
    for (p <- Seq(3, 4)) SpecConf.withDefaultParallelism(spark.sparkContext, p) {
      val g = BlockGraph.load(spark, df, undirected = true)
      try assert(g.blocks.filter(b => b.edges.numEdges == 0 && b.master.ids.isEmpty).count() == 1, s"p=$p")
      finally g.release()
    }
    for (p <- Seq(3, 4); maxIters <- Seq(1, 2, 50)) SpecConf.withDefaultParallelism(spark.sparkContext, p) {
      val (labels, iters) = GasEngine.connectedComponents(spark, df, maxIters)
      val got = labels.collect().map(r => (r.getLong(0), r.getLong(1))).sortBy(_._1)
      val (want, wantIters) = TwoExchange.components(spark, df, maxIters)
      assert(iters == wantIters, s"p=$p maxIters=$maxIters")
      assert(got.sameElements(want), s"p=$p maxIters=$maxIters")
    }
  }

  test("pageRank ranks are bitwise the reference's at P = 3 and P = 4 with one empty block") {
    val df = oneEmptyBlock
    for (p <- Seq(3, 4)) SpecConf.withDefaultParallelism(spark.sparkContext, p) {
      assertReferenceRanks(df, s"p=$p")
    }
  }

  test("a superstep ships one partial per (dst replica, block that sources or masters its vertex)") {
    val p = 3
    // vertex 5 has three dst replicas, two of them on block 0 (parts 0 and 3)
    val edges = Seq((0L, 5L, 0), (1L, 5L, 1), (2L, 5L, 3), (5L, 1L, 1), (5L, 2L, 2), (4L, 0L, 2))
    val df = spark.createDataFrame(edges.zipWithIndex.map { case ((s, d, q), e) => (e.toLong, s, d, q) })
      .toDF("id", "src", "dst", "part")
    def block(q: Int) = java.lang.Math.floorMod(q, p)
    val sources = edges.groupBy(_._1).map { case (v, es) => v -> es.map(e => block(e._3)).toSet }
    val formula = edges.map(e => (e._3, e._2)).distinct
      .map { case (_, v) => (sources.getOrElse(v, Set.empty[Int]) + EdgeBlock.masterOf(v, p)).size }.sum
    assert(formula == 10)
    SpecConf.withDefaultParallelism(spark.sparkContext, p) {
      val g = BlockGraph.load(spark, df, undirected = false)
      try {
        val counts = g.blocks.map(b => (b.send.map(_.length).sum, b.recv.map(_.length).sum)).collect()
        assert(counts.map(_._1).sum == formula && counts.map(_._2).sum == formula, counts.mkString(" "))
      } finally g.release()
      assertReferenceRanks(df, "hand graph")
    }
  }
}
