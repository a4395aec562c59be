package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs, WebGraphs}

class ClugpSpec extends SparkSpec {

  test("end-to-end: complete, valid, balanced assignment") {
    val s = TestGraphs.tiny(spark)
    for (k <- Seq(2, 4, 16, 64)) {
      val a = Clugp.run(s, k)
      assert(a.part.length == s.numEdges)
      assert(a.part.forall(p => p >= 0 && p < k))
      val q = Metrics.evaluate(s, a.part, k)
      assert(q.relativeBalance <= 1.0 + k.toDouble / s.numEdges + 1e-9,
        s"k=$k balance=${q.relativeBalance}")
    }
  }

  test("deterministic end to end") {
    val s = TestGraphs.tiny(spark)
    val a = Clugp.run(s, 8)
    val b = Clugp.run(s, 8)
    assert(a.part.toSeq == b.part.toSeq)
  }

  test("variant names reflect the configuration") {
    assert(new Clugp().name == "CLUGP")
    assert(new Clugp(ClugpConfig(splitting = false)).name == "CLUGP-S")
    assert(new Clugp(ClugpConfig(gameMode = GreedyPlacement)).name == "CLUGP-G")
    assert(new Clugp().preferredOrder == "bfs")
  }

  test("CLUGP beats the hashing family on a web graph (Fig. 3 ordering)") {
    val s = TestGraphs.tiny(spark)
    val k = 16
    val clugp = Metrics.evaluate(s, Clugp.run(s, k).part, k).replicationFactor
    val hash = Metrics.evaluate(s,
      new repro.partitioners.HashingPartitioner().partition(s, k).part, k).replicationFactor
    val dbh = Metrics.evaluate(s,
      new repro.partitioners.DbhPartitioner().partition(s, k).part, k).replicationFactor
    assert(clugp < dbh && dbh < hash, s"clugp=$clugp dbh=$dbh hash=$hash")
  }

  test("game placement beats greedy placement (Fig. 9 CLUGP vs CLUGP-G)") {
    val s = TestGraphs.tiny(spark)
    val k = 32
    val game = Metrics.evaluate(s, Clugp.run(s, k).part, k).replicationFactor
    val greedy = Metrics.evaluate(s,
      Clugp.run(s, k, ClugpConfig(gameMode = GreedyPlacement)).part, k).replicationFactor
    assert(game <= greedy * 1.02, s"game=$game greedy=$greedy")
  }

  test("passes equals Clugp.run and reports pass timings and game telemetry") {
    val s = TestGraphs.tiny(spark)
    // CLUGP, CLUGP-S, CLUGP-G and the sequential game
    val configs = Seq(ClugpConfig(), ClugpConfig(splitting = false),
      ClugpConfig(gameMode = GreedyPlacement),
      ClugpConfig(gameMode = ParallelGame(batchSize = Int.MaxValue, threads = 1)))
    for (cfg <- configs) {
      val r = Clugp.passes(s, 8, cfg)
      val a = Clugp.run(s, 8, cfg)
      assert(java.util.Arrays.equals(r.part, a.part), s"$cfg: part")
      assert(r.spaceBytes == a.spaceBytes, s"$cfg: spaceBytes")
      assert(r.clustering.numClusters > 0, s"$cfg: clusters")
      assert(Seq(r.pass1Ms, r.cgraphMs, r.gameMs, r.pass3Ms).forall(_ >= 0), s"$cfg: pass times")
      if (cfg.gameMode != GreedyPlacement) assert(r.placed.rounds > 0, s"$cfg: game rounds")
    }
  }

  test("tau shapes the balance bound") {
    val s = TestGraphs.tiny(spark)
    for (tau <- Seq(1.0, 1.2, 1.5)) {
      val a = Clugp.run(s, 16, ClugpConfig(tau = tau))
      val q = Metrics.evaluate(s, a.part, 16)
      assert(q.relativeBalance <= tau + 16.0 / s.numEdges + 1e-9)
    }
  }

  test("space accounting is O(|V|) plus cluster state") {
    val s = TestGraphs.tiny(spark)
    val a = Clugp.run(s, 8)
    assert(a.spaceBytes >= 8L * s.numVertices)
    assert(a.spaceBytes < 64L * s.numVertices + 16L * s.numEdges)
  }

  test("distributed mode assigns every edge exactly once") {
    val df = WebGraphs.Tiny.df(spark)
    val n = df.count()
    val assigned = Clugp.partitionDistributed(spark, df, 8, numSlices = 4)
    assert(assigned.count() == n)
    assert(assigned.select("id").distinct().count() == n)
    assert(assigned.where(col("part") < 0 || col("part") >= 8).count() == 0)
  }

  test("distributed mode quality is close to single-node quality") {
    val df = WebGraphs.Tiny.df(spark)
    val s = TestGraphs.tiny(spark)
    val local = Metrics.evaluate(s, Clugp.run(s, 8).part, 8).replicationFactor
    val assigned = Clugp.partitionDistributed(spark, df, 8, numSlices = 4)
    val dist = MetricsDF.replicationFactorDF(assigned).collect()(0).getDouble(0)
    // slices lose cross-slice structure; allow a modest degradation
    assert(dist < local * 1.8 + 0.5, s"dist=$dist local=$local")
    // and distributed partitioning must still beat hashing
    val hash = Metrics.evaluate(s,
      new repro.partitioners.HashingPartitioner().partition(s, 8).part, 8).replicationFactor
    assert(dist < hash)
  }

  test("oracle: distributed assignment balance via DuckDB") {
    val df = WebGraphs.Tiny.df(spark)
    val assigned = Clugp.partitionDistributed(spark, df, 4, numSlices = 2)
    Oracle.assertEquivalent(MetricsDF.partitionSizesDF(assigned),
      "SELECT part, COUNT(*) AS edges FROM assigned GROUP BY part ORDER BY part",
      "assigned" -> assigned)
  }

  test("weight parameter moves lambda without breaking the pipeline") {
    val s = TestGraphs.tiny(spark)
    for (w <- Seq(0.1, 0.5, 0.9)) {
      val a = Clugp.run(s, 8, ClugpConfig(weight = w))
      assert(a.part.length == s.numEdges)
      val q = Metrics.evaluate(s, a.part, 8)
      assert(q.replicationFactor >= 1.0)
    }
  }

  test("k < 1 fails clearly, for every game mode") {
    val s = TestGraphs.handStream
    for (k <- Seq(0, -3);
         mode <- Seq(ParallelGame(batchSize = Int.MaxValue, threads = 1), ParallelGame(64, 2),
                     GreedyPlacement)) {
      val e = intercept[IllegalArgumentException] {
        Clugp.run(s, k, ClugpConfig(gameMode = mode))
      }
      assert(e.getMessage.contains(s"got $k"), e.getMessage)
    }
  }

  test("distributed mode gives the same assignment on every call") {
    val df = WebGraphs.Tiny.df(spark)
    def pairs = Clugp.partitionDistributed(spark, df, 8, numSlices = 4)
      .select("id", "part").collect().map(r => (r.getLong(0), r.getInt(1))).sorted.toSeq
    val first = pairs
    assert(pairs == first)
  }

  test("distributed mode needs at least one slice") {
    val e = intercept[IllegalArgumentException] {
      Clugp.partitionDistributed(spark, WebGraphs.Tiny.df(spark), 8, numSlices = 0)
    }
    assert(e.getMessage.contains("got 0"), e.getMessage)
  }

  test("distributed mode gives the pinned assignment on Tiny and TinySocial") {
    // hashes of the (id, part) pairs by id at k = 8 with 4 slices: a change
    // to the slice bounds, the order within a slice or its labels moves them
    val want = Seq(WebGraphs.Tiny -> "1e01719e679b0ceb", WebGraphs.TinySocial -> "3167993bd8cea4b1")
    for ((spec, hash) <- want) {
      val pairs = Clugp.partitionDistributed(spark, spec.df(spark), 8, numSlices = 4)
        .select("id", "part").collect().map(r => (r.getLong(0), r.getInt(1).toLong)).sorted
      val got = TestGraphs.columnsHash(Seq(pairs.map(_._1), pairs.map(_._2)))
      assert(f"$got%016x" == hash, spec.name)
    }
  }

  test("distributed mode rejects k < 1 at the call") {
    for (k <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException] {
        Clugp.partitionDistributed(spark, WebGraphs.Tiny.df(spark), k, numSlices = 4)
      }
      assert(e.getMessage.contains(s"got $k"), e.getMessage)
    }
  }

  test("distributed mode rejects a null src, dst or id, naming the column") {
    import spark.implicits._
    for ((column, c) <- Seq("src", "dst", "id").zipWithIndex) {
      val row = Array[Option[Long]](Some(1L), Some(2L), Some(1L))
      row(c) = None
      val df = Seq((Option(1L), Option(3L), Option(0L)), (row(0), row(1), row(2)))
        .toDF("src", "dst", "id")
      val e = intercept[IllegalArgumentException](Clugp.partitionDistributed(spark, df, 2, numSlices = 2))
      assert(e.getMessage.contains(column), e.getMessage)
    }
  }

  test("ClugpConfig rejects a weight, vMaxFactor or tau that breaks CLUGP, naming the value") {
    def rejects(value: String)(cfg: => ClugpConfig): Unit = {
      val e = intercept[IllegalArgumentException](cfg)
      assert(e.getMessage.contains(s"got $value"), e.getMessage)
    }
    rejects("1.0")(ClugpConfig(weight = 1.0))
    rejects("1.5")(ClugpConfig(weight = 1.5))
    rejects("-0.1")(ClugpConfig(weight = -0.1))
    rejects("NaN")(ClugpConfig(weight = Double.NaN))
    rejects("0.0")(ClugpConfig(vMaxFactor = 0.0))
    rejects("-1.0")(ClugpConfig(vMaxFactor = -1.0))
    rejects("NaN")(ClugpConfig(vMaxFactor = Double.NaN))
    rejects("Infinity")(ClugpConfig(vMaxFactor = Double.PositiveInfinity))
    rejects("0.9")(ClugpConfig(tau = 0.9))
    rejects("NaN")(ClugpConfig(tau = Double.NaN))
    assert(ClugpConfig(weight = 0.0).lambda(0.25) == 0.0)
    assert(ClugpConfig(vMaxFactor = 1e-9).vMax(10, 2) == 2)
  }

  test("V_max and lambda derive from the configuration") {
    val cfg = ClugpConfig()
    assert(cfg.vMax(361000, 256) == 361000L / 256)
    assert(cfg.vMax(10, 64) == 2)
    assert(ClugpConfig(vMaxFactor = 2.0).vMax(6400, 64) == 200)
    assert(cfg.lambda(0.25) == 0.25)
    assert(ClugpConfig(weight = 0.75).lambda(0.25) == 0.75)
  }
}
