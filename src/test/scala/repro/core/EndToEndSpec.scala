package repro.core

import repro.exp.Runner
import repro.{SparkSpec, TestGraphs}

/** Cross-algorithm integration grid: every partitioner × several k on
  * both test graphs must produce a complete, valid, sanely-balanced
  * assignment with RF ≥ 1 — the contract every downstream consumer
  * (metrics, GAS engine, benches) relies on.
  */
class EndToEndSpec extends SparkSpec {

  private val ks = Seq(3, 8, 32, 128)

  for (graphName <- Seq("tiny", "tiny-social"); k <- ks) {
    test(s"grid: all six partitioners are sound on $graphName at k=$k") {
      val s = if (graphName == "tiny") TestGraphs.tiny(spark)
              else TestGraphs.tinySocial(spark)
      for (algo <- Runner.allAlgorithms(gameThreads = 4)) {
        val r = Runner.run(graphName, s, algo, k)
        assert(r.partitionSizes.sum == s.numEdges, s"${algo.name}: lost edges")
        assert(r.partitionSizes.length == k)
        assert(r.rf >= 1.0, s"${algo.name}: rf=${r.rf}")
        assert(r.rf <= k.toDouble, s"${algo.name}: rf above k")
        assert(r.balance >= 1.0 - 1e-9)
        // every partitioner but raw hashing stays reasonably balanced
        if (algo.name != "Hashing" && algo.name != "DBH")
          assert(r.balance < 1.5, s"${algo.name}: balance=${r.balance}")
        assert(r.spaceBytes >= 0 && r.timeMs >= 0)
      }
    }
  }

  for (k <- Seq(8, 32)) {
    test(s"grid: CLUGP dominates the hashing family on the web graph at k=$k") {
      val s = TestGraphs.tiny(spark)
      val res = Runner.allAlgorithms().map(a => a.name -> Runner.run("tiny", s, a, k)).toMap
      assert(res("CLUGP").rf < res("DBH").rf)
      assert(res("CLUGP").rf < res("Hashing").rf)
      assert(res("CLUGP").rf < res("Mint").rf)
    }
  }

  test("grid: metrics agree between driver and DataFrame for every algorithm") {
    val s = TestGraphs.tiny(spark).take(4000)
    for (algo <- Runner.allAlgorithms(gameThreads = 2)) {
      val a = algo.partition(s, 8)
      val q = Metrics.evaluate(s, a.part, 8)
      val df = Metrics.assignmentDF(spark, s, a.part)
      val rf = MetricsDF.replicationFactorDF(df).collect()(0).getDouble(0)
      assert(math.abs(rf - q.replicationFactor) < 1e-9, algo.name)
    }
  }
}
