package repro.partitioners

import repro.core.Metrics
import repro.exp.Runner
import repro.{SparkSpec, TestGraphs}

class PartitionersSpec extends SparkSpec {

  private def algos: Seq[StreamingPartitioner] = Seq(
    new HashingPartitioner, new DbhPartitioner, new MintPartitioner(),
    new GreedyPartitioner, new HdrfPartitioner())

  // completeness + validity + determinism for every baseline × k
  for (algo <- algos; k <- Seq(2, 8, 33, 64)) {
    test(s"${algo.getClass.getSimpleName} is complete/valid/deterministic at k=$k") {
      val s = TestGraphs.tiny(spark).take(5000)
      def run() = algo.partition(s, k)
      val a = run(); val b = run()
      assert(a.part.length == s.numEdges)
      assert(a.part.forall(p => p >= 0 && p < k))
      assert(a.part.toSeq == b.part.toSeq)
      assert(a.spaceBytes >= 0 && a.timeMs >= 0)
    }
  }

  test("Hashing assigns identical edges identically and uses zero space") {
    val s = TestGraphs.fromPairs(Seq((1L, 2L), (3L, 4L), (1L, 2L)))
    val a = new HashingPartitioner().partition(s, 8)
    assert(a.part(0) == a.part(2))
    assert(a.spaceBytes == 0)
  }

  test("Hashing is roughly balanced on a web graph") {
    val s = TestGraphs.tiny(spark)
    val q = Metrics.evaluate(s, new HashingPartitioner().partition(s, 16).part, 16)
    assert(q.relativeBalance < 1.3, s"balance=${q.relativeBalance}")
  }

  test("DBH hashes the lower partial-degree endpoint (reference replay)") {
    val s = TestGraphs.tiny(spark).take(2000)
    val k = 8
    val a = new DbhPartitioner().partition(s, k)
    // recompute with an independent replay of the rule + the same hash
    def dbhHash(x: Int, kk: Int): Int = {
      var h = x.toLong * 0x9E3779B97F4A7C15L
      h ^= h >>> 33; h *= 0xC2B2AE3D27D4EB4FL; h ^= h >>> 29
      (((h & Long.MaxValue) % Int.MaxValue) % kk).toInt
    }
    val deg = new Array[Int](s.numVertices)
    s.src.indices.foreach { i =>
      val u = s.src(i); val v = s.dst(i)
      deg(u) += 1; deg(v) += 1
      val pick = if (deg(u) <= deg(v)) u else v
      assert(a.part(i) == dbhHash(pick, k))
    }
  }

  test("DBH cuts high-degree vertices more than low-degree ones") {
    val s = TestGraphs.tiny(spark)
    val k = 16
    val part = new DbhPartitioner().partition(s, k).part
    val parts = Array.fill(s.numVertices)(scala.collection.mutable.Set[Int]())
    s.src.indices.foreach { i =>
      parts(s.src(i)) += part(i); parts(s.dst(i)) += part(i)
    }
    val deg = s.degrees
    val active = deg.indices.filter(deg(_) > 0)
    val hubs = active.sortBy(-deg(_)).take(20)
    val leaves = active.sortBy(deg(_)).take(200)
    val hubRf = hubs.map(parts(_).size).sum.toDouble / hubs.size
    val leafRf = leaves.map(parts(_).size).sum.toDouble / leaves.size
    assert(hubRf > leafRf, s"hubs $hubRf should be cut more than leaves $leafRf")
  }

  test("Greedy keeps balance within a whisker of 1.0") {
    val s = TestGraphs.tiny(spark)
    val q = Metrics.evaluate(s, new GreedyPartitioner().partition(s, 16).part, 16)
    assert(q.relativeBalance < 1.05)
  }

  test("Greedy co-locates repeated pairs within the balance bound") {
    // four independent pairs × 3 copies, k=4: every pair fits one
    // partition without breaching capacity = ceil(1.02·12/4) = 4
    val pairs = Seq((1L, 2L), (3L, 4L), (5L, 6L), (7L, 8L))
    val s = TestGraphs.fromPairs(pairs.flatMap(p => Seq(p, p, p)))
    val part = new GreedyPartitioner().partition(s, 4).part
    for (g <- 0 until 4) {
      val copies = Seq(3 * g, 3 * g + 1, 3 * g + 2).map(part)
      assert(copies.distinct.length == 1, s"pair $g split across $copies")
    }
  }

  test("HDRF keeps balance within a whisker of 1.0") {
    val s = TestGraphs.tiny(spark)
    val q = Metrics.evaluate(s, new HdrfPartitioner().partition(s, 16).part, 16)
    assert(q.relativeBalance < 1.05)
  }

  test("HDRF replicates high-degree vertices first") {
    val s = TestGraphs.tiny(spark)
    val k = 16
    val part = new HdrfPartitioner().partition(s, k).part
    val parts = Array.fill(s.numVertices)(scala.collection.mutable.Set[Int]())
    s.src.indices.foreach { i =>
      parts(s.src(i)) += part(i); parts(s.dst(i)) += part(i)
    }
    val deg = s.degrees
    val active = deg.indices.filter(deg(_) > 0)
    val hubs = active.sortBy(-deg(_)).take(20)
    val leaves = active.sortBy(deg(_)).take(200)
    val hubRf = hubs.map(parts(_).size).sum.toDouble / hubs.size
    val leafRf = leaves.map(parts(_).size).sum.toDouble / leaves.size
    assert(hubRf > 1.5 * leafRf, s"hub rf $hubRf vs leaf rf $leafRf")
  }

  test("HDRF beats DBH and Hashing on quality (Table I)") {
    val s = TestGraphs.tiny(spark).shuffled(42)
    val k = 16
    def rf(a: StreamingPartitioner) =
      Metrics.evaluate(s, a.partition(s, k).part, k).replicationFactor
    val hdrf = rf(new HdrfPartitioner())
    val dbh = rf(new DbhPartitioner)
    val hash = rf(new HashingPartitioner)
    assert(hdrf < dbh && dbh < hash, s"hdrf=$hdrf dbh=$dbh hash=$hash")
  }

  test("Mint respects its hard balance slack") {
    val s = TestGraphs.tiny(spark)
    for (k <- Seq(8, 32)) {
      val q = Metrics.evaluate(s, new MintPartitioner().partition(s, k).part, k)
      assert(q.relativeBalance < 1.2, s"k=$k balance=${q.relativeBalance}")
    }
  }

  test("Mint quality sits between hashing-based and heuristic methods (Table I)") {
    val s = TestGraphs.tiny(spark)
    val k = 16
    val mint = Metrics.evaluate(s, new MintPartitioner().partition(s, k).part, k).replicationFactor
    val hash = Metrics.evaluate(s, new HashingPartitioner().partition(s, k).part, k).replicationFactor
    val hdrfOrder = TestGraphs.tiny(spark).shuffled(42)
    val hdrf = Metrics.evaluate(hdrfOrder,
      new HdrfPartitioner().partition(hdrfOrder, k).part, k).replicationFactor
    assert(mint < hash, s"mint=$mint should beat hashing=$hash")
    assert(mint > hdrf * 0.8, s"mint=$mint should not dominate hdrf=$hdrf")
  }

  test("space accounting grows with k for replica-table methods") {
    val s = TestGraphs.tiny(spark)
    val g64 = new GreedyPartitioner().partition(s, 64).spaceBytes
    val g256 = new GreedyPartitioner().partition(s, 256).spaceBytes
    assert(g256 > g64)
    val h64 = new HdrfPartitioner().partition(s, 64).spaceBytes
    val h256 = new HdrfPartitioner().partition(s, 256).spaceBytes
    assert(h256 > h64)
    // DBH space is k-independent
    assert(new DbhPartitioner().partition(s, 64).spaceBytes ==
           new DbhPartitioner().partition(s, 256).spaceBytes)
  }

  test("Greedy and HDRF place every edge within the capacity bound when k exceeds |E|") {
    val s = TestGraphs.tiny(spark).take(50)
    for (k <- Seq(51, 64, 1000); algo <- Seq(new GreedyPartitioner, new HdrfPartitioner)) {
      val part = algo.partition(s, k).part
      assert(part.length == s.numEdges && part.forall(p => p >= 0 && p < k))
      val bound = math.ceil(1.02 * s.numEdges / k).toLong
      val q = Metrics.evaluate(s, part, k)
      assert(q.partitionSizes.max <= bound, s"${algo.name} k=$k sizes ${q.partitionSizes.max} > $bound")
    }
  }

  test("every partitioner rejects k < 1, naming the value") {
    val s = TestGraphs.tiny(spark).take(100)
    for (algo <- Runner.allAlgorithms(gameThreads = 2); k <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException](algo.partition(s, k))
      assert(e.getMessage.contains(s"got $k"), s"${algo.name}: ${e.getMessage}")
    }
  }

  test("preferred stream orders follow §VI-A") {
    assert(new HashingPartitioner().preferredOrder == "random")
    assert(new DbhPartitioner().preferredOrder == "random")
    assert(new GreedyPartitioner().preferredOrder == "random")
    assert(new HdrfPartitioner().preferredOrder == "random")
    assert(new MintPartitioner().preferredOrder == "bfs")
  }
}
