package repro.bench

import repro.SparkSpec
import repro.exp.Runner

/** Paper Fig. 9 — ablation on IT: CLUGP vs CLUGP-S (no splitting) and
  * CLUGP-G (greedy cluster placement instead of the game). Paper shape:
  * CLUGP ≤ CLUGP-S everywhere with the gap growing in k, and the game
  * clearly beats greedy placement.
  */
class F9AblationBench extends SparkSpec {

  test("Fig 9: CLUGP vs CLUGP-S vs CLUGP-G on it-lite") {
    val s = BenchData.stream(spark, "it-lite")
    val rows = for (k <- BenchData.KSweep; clugp <- Runner.ablation) yield {
      val r = Runner.run("it-lite", s, clugp, k)
      Seq(k.toString, r.algo, f"${r.rf}%.3f", f"${r.balance}%.3f")
    }
    BenchData.emit("F9 ablation (it-lite)", Seq("k", "variant", "rf", "balance"), rows)

    val rf = rows.map(r => (r(0).toInt, r(1)) -> r(2).toDouble).toMap
    for (k <- BenchData.KSweep) {
      // the game beats greedy placement at every k
      assert(rf((k, "CLUGP")) < rf((k, "CLUGP-G")), s"k=$k vs greedy")
      // splitting never loses by more than a whisker, and wins at mid k
      assert(rf((k, "CLUGP")) <= rf((k, "CLUGP-S")) * 1.05, s"k=$k vs no-split")
    }
    assert(rf((64, "CLUGP")) < rf((64, "CLUGP-S")), "splitting should win at k=64")
  }
}
