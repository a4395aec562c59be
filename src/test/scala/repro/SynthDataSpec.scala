package repro

import java.util.concurrent.atomic.AtomicInteger

import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration

import org.apache.spark.SpecBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import repro.core.EdgeStream

class SynthDataSpec extends SparkSpec {

  private lazy val tinyDf = WebGraphs.Tiny.df(spark).cache()

  test("webGraph is deterministic in its arguments") {
    val a = WebGraphs.Tiny.df(spark).orderBy("id").collect()
    val b = WebGraphs.Tiny.df(spark).orderBy("id").collect()
    assert(a.toSeq == b.toSeq)
  }

  /** Runs `body` with `spark.range` split into `slices` partitions by
    * default, then restores the setting. */
  private def withLeafParallelism[A](slices: Int)(body: => A): A = {
    val key = "spark.sql.leafNodeDefaultParallelism"
    val before = spark.conf.getOption(key)
    spark.conf.set(key, slices.toLong)
    try body
    finally before.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }

  private def sortedRows(df: org.apache.spark.sql.DataFrame): Seq[(Long, Long, Long)] =
    df.select("src", "dst", "id").collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2)))
      .sortBy(_._3).toSeq

  test("webGraph returns the rows of the Catalyst reference at 16 partitions") {
    withLeafParallelism(16) {
      for (spec <- Seq(WebGraphs.Tiny, WebGraphs.TinySocial, WebGraphs.UKLite)) {
        val got = sortedRows(spec.df(spark))
        val want = sortedRows(CatalystWebGraph.of(spark, spec))
        assert(got.length == want.length, s"${spec.name} edge count")
        assert(got == want, s"${spec.name} rows")
      }
    }
  }

  test("fromDF gives the pinned stream of Tiny, TinySocial and UKLite") {
    // dataset fingerprints (UKLite's is the one in EXPERIMENTS.md Table
    // III): a change to the rows, their order or the labels moves them
    val want = Seq(WebGraphs.Tiny -> "1af7e1ede4149d09", WebGraphs.TinySocial -> "c9e703fbe68f1508",
                   WebGraphs.UKLite -> "59937bfe59c74548")
    for ((spec, hash) <- want) {
      val got = TestGraphs.streamHash(EdgeStream.fromDF(spec.df(spark)))
      assert(f"$got%016x" == hash, spec.name)
    }
  }

  test("fromDF gives the pinned stream of ArabicLite, WebBaseLite, ITLite and TwitterLite") {
    // the rest of EXPERIMENTS.md Table III; webbase-lite's draws reach the
    // StrictMath.pow fallback of Zipf.rank
    val want = Seq(WebGraphs.ArabicLite -> "56a8887335524396", WebGraphs.WebBaseLite -> "85a2eb101b3da8fd",
                   WebGraphs.ITLite -> "3574e5b9ed9d8307", WebGraphs.TwitterLite -> "5853df107918dbf3")
    for ((spec, hash) <- want) {
      val got = TestGraphs.streamHash(EdgeStream.fromDF(spec.df(spark)))
      assert(f"$got%016x" == hash, spec.name)
    }
  }

  /** Checks `Zipf(n, q).rank` against `StrictMath.pow`'s rank on the
    * inputs b within 30 ulps of r^(1/e) for every rank r, where the
    * truncated power b^e steps to r; returns how many of them `Math.pow`
    * and `StrictMath.pow` truncate apart. */
  private def boundaryScan(n: Long, q: Double): Long = {
    val zipf = new WebGraphDraw.Zipf(n, q)
    val e = 1.0 / (1.0 - q)
    var differ = 0L
    var r = 1L
    while (r <= n) {
      var b = StrictMath.pow(r.toDouble, 1.0 - q)
      for (_ <- 1 to 30) b = Math.nextDown(b)
      for (_ <- -30 to 30) {
        val strict = StrictMath.pow(b, e)
        if (Math.pow(b, e).toLong != strict.toLong) differ += 1
        val want = math.min(n, math.max(1L, strict.toLong))
        val got = zipf.rank(b)
        if (got != want) fail(s"q $q, n $n, b $b: rank $got, StrictMath.pow gives $want")
        b = Math.nextUp(b)
      }
      r += 1
    }
    differ
  }

  test("Zipf gives StrictMath.pow's rank next to every rank boundary") {
    // every q of WebGraphs; the cases run in parallel
    val cases = for (q <- Seq(0.25, 0.3, 0.5, 0.55, 0.7); n <- Seq(10L, 14L, 60000L, 100000L)) yield (n, q)
    val differ = Await.result(Future.traverse(cases)(c => Future(boundaryScan(c._1, c._2))), Duration.Inf).sum
    assert(differ > 0, "no scanned input tells Math.pow from StrictMath.pow")
    // one of them: Math.pow truncates to 245
    assert(StrictMath.pow(62.11569235526639, 1.0 / 0.75).toLong == 246)
    assert(new WebGraphDraw.Zipf(60000, 0.25).rank(62.11569235526639) == 246)
  }

  test("XorShift replays rand(seed) of spark.range value for value") {
    val n = 1001L
    for (seed <- Seq(7L, 114L); slices <- Seq(3, 16)) {
      val want = spark.range(0, n, 1, slices).select(rand(seed)).collect().map(_.getDouble(0))
      val got = (0 until slices).flatMap { p =>
        val u = new XorShift(seed + p)
        (SynthData.sliceStart(n, slices, p) until SynthData.sliceStart(n, slices, p + 1))
          .map(_ => u.nextDouble())
      }
      assert(got == want.toSeq, s"seed $seed, $slices slices")
    }
  }

  test("webGraph does not depend on leafNodeDefaultParallelism") {
    val hashes = Seq(1, 4, 16).map(slices =>
      withLeafParallelism(slices)(TestGraphs.streamHash(EdgeStream.fromDF(WebGraphs.Tiny.df(spark)))))
    assert(hashes.distinct.length == 1, hashes.map(h => f"$h%016x").mkString(", "))
  }

  private def rejects(argument: String)(call: => Any): Unit = {
    val e = intercept[IllegalArgumentException](call)
    assert(e.getMessage.contains(argument), e.getMessage)
  }

  test("webGraph rejects nVertices outside [1, Int.MaxValue]") {
    rejects("nVertices")(SynthData.webGraph(spark, 0, 10))
    rejects("nVertices")(SynthData.webGraph(spark, Int.MaxValue + 1L, 10))
  }

  test("webGraph rejects a negative nEdges") {
    rejects("nEdges")(SynthData.webGraph(spark, 10, -1))
  }

  test("webGraph rejects an nEdges past 16 slices of Int.MaxValue ids before any Spark job") {
    val sc = spark.sparkContext
    val started = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
    }
    SpecBus.drain(sc)
    sc.addSparkListener(listener)
    try {
      rejects("nEdges")(SynthData.webGraph(spark, 10, 16L * Int.MaxValue + 1))
      SpecBus.drain(sc)
      assert(started.get == 0)
    } finally sc.removeSparkListener(listener)
  }

  test("webGraph rejects hostSize < 1") {
    rejects("hostSize")(SynthData.webGraph(spark, 10, 10, hostSize = 0))
  }

  test("webGraph rejects pIntra, pNear or their sum outside [0, 1]") {
    rejects("pIntra")(SynthData.webGraph(spark, 10, 10, pIntra = -0.1, pNear = 0))
    rejects("pIntra")(SynthData.webGraph(spark, 10, 10, pIntra = 1.1, pNear = 0))
    rejects("pNear")(SynthData.webGraph(spark, 10, 10, pIntra = 0, pNear = -0.1))
    rejects("pNear")(SynthData.webGraph(spark, 10, 10, pIntra = 0, pNear = 1.1))
    rejects("pIntra + pNear")(SynthData.webGraph(spark, 10, 10, pIntra = 0.6, pNear = 0.5))
  }

  test("webGraph rejects a Zipf exponent q of 1") {
    rejects("qOut")(SynthData.webGraph(spark, 10, 10, qOut = 1.0))
    rejects("qIn")(SynthData.webGraph(spark, 10, 10, qIn = 1.0))
    rejects("qIntra")(SynthData.webGraph(spark, 10, 10, qIntra = 1.0))
  }

  test("webGraph has no self-loops") {
    assert(tinyDf.where(col("src") === col("dst")).count() == 0)
  }

  test("webGraph has no duplicate edges") {
    val n = tinyDf.count()
    assert(tinyDf.select("src", "dst").distinct().count() == n)
  }

  test("webGraph ids are within [1, nV]") {
    val spec = WebGraphs.Tiny
    val bad = tinyDf.where(
      col("src") < 1 || col("src") > spec.nV || col("dst") < 1 || col("dst") > spec.nV)
    assert(bad.count() == 0)
  }

  test("webGraph degree distribution is skewed (power-law-ish)") {
    val s = TestGraphs.tiny(spark)
    val degs = s.degrees.sorted(Ordering[Int].reverse)
    val avg = degs.sum.toDouble / degs.count(_ > 0)
    // hubs well above average, but bounded below V_max at k=256 (the
    // tiny graph's zipf range is compressed, so the bar is modest)
    assert(degs.head > 2.5 * avg, s"max degree ${degs.head} should dwarf avg $avg")
    assert(degs.head < s.numEdges / 4, "hub must stay below any sane V_max")
    // top-1% of vertices should hold a disproportionate share of degree
    val top = degs.take(math.max(1, degs.length / 100)).map(_.toLong).sum
    assert(top.toDouble / (2.0 * s.numEdges) > 0.02)
  }

  test("webGraph exhibits host locality; social graph does not") {
    def intraHostFrac(spec: WebGraphs.GraphSpec): Double = {
      val df = spec.df(spark)
      val h = (c: org.apache.spark.sql.Column) => floor((c - 1) / spec.hostSize.max(2L))
      df.select((h(col("src")) === h(col("dst"))).cast("int") as "i")
        .agg(avg("i")).collect()(0).getDouble(0)
    }
    val web = intraHostFrac(WebGraphs.Tiny)
    assert(web > 0.5, s"web graph should be host-local, got $web")
    // social graph has hostSize 1 — measure with the web graph's block size
    val soc = WebGraphs.TinySocial.df(spark)
    val blocked = soc.select(
      (floor((col("src") - 1) / 20) === floor((col("dst") - 1) / 20)).cast("int") as "i")
      .agg(avg("i")).collect()(0).getDouble(0)
    assert(blocked < 0.2, s"social graph should have no block locality, got $blocked")
  }

  test("sampleGraph keeps only the id prefix") {
    val spec = WebGraphs.Tiny
    val half = SynthData.sampleGraph(tinyDf, spec.nV, 0.5)
    val keep = (spec.nV * 0.5).toLong
    assert(half.where(col("src") > keep || col("dst") > keep).count() == 0)
    val full = tinyDf.count()
    val cnt  = half.count()
    assert(cnt > 0 && cnt < full)
  }

  test("sampleGraph(1.0) is the full graph") {
    val spec = WebGraphs.Tiny
    assert(SynthData.sampleGraph(tinyDf, spec.nV, 1.0).count() == tinyDf.count())
  }

  test("dataset specs produce graphs at their advertised scale") {
    // only the smallest real spec, to keep test time bounded
    val df = WebGraphs.UKLite.df(spark)
    val n  = df.count()
    assert(n > WebGraphs.UKLite.nE / 2, s"uk-lite realized $n edges")
    assert(n <= WebGraphs.UKLite.nE)
  }

  test("byName finds every dataset and names the known ones on a miss") {
    for (spec <- WebGraphs.all) assert(WebGraphs.byName(spec.name) == spec)
    val e = intercept[IllegalArgumentException](WebGraphs.byName("nope"))
    assert(e.getMessage.contains("nope") && e.getMessage.contains("uk-lite"), e.getMessage)
  }

  test("zipfKeys is skewed toward small keys") {
    val df = TpchLite.zipfKeys(spark, 10000, 100)
    val top = df.where(col("k") <= 5).count()
    assert(top > 1000, s"zipf top-5 keys got $top of 10000 rows")
  }

  test("uniformKeys covers the key range roughly evenly") {
    val df = TpchLite.uniformKeys(spark, 10000, 10)
    val counts = df.groupBy("k").count().collect().map(_.getLong(1))
    assert(counts.length == 10)
    assert(counts.min > 500 && counts.max < 2000)
  }

  test("oracle: tpch-lite lineitem aggregates match DuckDB") {
    val li = TpchLite.lineitem(spark, sf = 0.001)
    val q = li.groupBy("l_returnflag")
      .agg(count(lit(1)) as "cnt", round(sum("l_quantity"), 2) as "qty")
    Oracle.assertEquivalent(q,
      """SELECT l_returnflag, COUNT(*) AS cnt,
        |       ROUND(SUM(CAST(l_quantity AS DOUBLE)), 2) AS qty
        |FROM lineitem GROUP BY l_returnflag""".stripMargin,
      "lineitem" -> li)
  }

  test("oracle: tpch-lite orders join customer matches DuckDB") {
    val o = TpchLite.orders(spark, sf = 0.001)
    val c = TpchLite.customer(spark, sf = 0.001)
    val q = o.join(c, o("o_custkey") === c("c_custkey"))
      .groupBy("c_mktsegment").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(q,
      """SELECT c_mktsegment, COUNT(*) AS cnt
        |FROM orders JOIN customer ON CAST(o_custkey AS BIGINT) = CAST(c_custkey AS BIGINT)
        |GROUP BY c_mktsegment""".stripMargin,
      "orders" -> o, "customer" -> c)
  }
}
