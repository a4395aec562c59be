package repro.exp

import repro.{SparkSpec, TestGraphs}

class RunnerSpec extends SparkSpec {

  test("allAlgorithms covers the paper's six competitors") {
    val names = Runner.allAlgorithms().map(_.name)
    assert(names == Seq("Hashing", "DBH", "Mint", "Greedy", "HDRF", "CLUGP"))
  }

  test("ablation holds CLUGP and its two Fig. 9 variants") {
    assert(Runner.ablation.map(_.name) == Seq("CLUGP", "CLUGP-S", "CLUGP-G"))
  }

  test("run honours the preferred stream order and fills every field") {
    val s = TestGraphs.tiny(spark).take(3000)
    for (algo <- Runner.allAlgorithms(gameThreads = 2)) {
      val r = Runner.run("tiny", s, algo, 8)
      assert(r.algo == algo.name && r.dataset == "tiny" && r.k == 8)
      assert(r.rf >= 1.0, s"${r.algo} rf=${r.rf}")
      assert(r.balance >= 1.0 - 1e-9)
      assert(r.partitionSizes.sum == s.numEdges)
      assert(r.row.length == 7)
    }
  }

  test("table renders aligned rows") {
    val t = Runner.table(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = t.linesIterator.toSeq
    assert(lines.length == 3)
    assert(lines.forall(_.length == lines.head.length))
    assert(lines.head.startsWith("a"))
  }

  test("run is deterministic for a fixed shuffle seed") {
    val s = TestGraphs.tiny(spark).take(2000)
    val a = Runner.run("t", s, new repro.partitioners.HdrfPartitioner(), 4)
    val b = Runner.run("t", s, new repro.partitioners.HdrfPartitioner(), 4)
    assert(a.rf == b.rf && a.mirrors == b.mirrors)
  }
}
