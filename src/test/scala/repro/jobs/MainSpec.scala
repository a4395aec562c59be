package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.WebGraphs

/** Argument parsing of [[Main]]; starts no Spark session. */
class MainSpec extends AnyFunSuite {

  import Main._

  private def parsed(args: String*): Command =
    Main.parse(args).fold(e => fail(s"${args.mkString(" ")} rejected: $e"), identity)

  private def rejected(args: String*)(names: String*): Unit = {
    val error = Main.parse(args).fold(identity, c => fail(s"${args.mkString(" ")} accepted: $c"))
    for (n <- names) assert(error.contains(n), error)
    assert(error.contains("usage:"), error)
  }

  test("partition takes a k list and an optional algo, all by default") {
    assert(parsed("partition", "uk-lite", "64") == Partition(WebGraphs.UKLite, Seq(64), "all"))
    assert(parsed("partition", "it-lite", "4,16,64,256", "ablation") ==
      Partition(WebGraphs.ITLite, Seq(4, 16, 64, 256), "ablation"))
    assert(parsed("partition", "uk-lite", "8", "hdrf") == Partition(WebGraphs.UKLite, Seq(8), "hdrf"))
  }

  test("pagerank defaults to 10 iterations and a 10 ms round trip") {
    assert(parsed("pagerank", "uk-lite", "32") == PageRank(WebGraphs.UKLite, 32, 10, 10.0))
    assert(parsed("pagerank", "uk-lite", "32", "5", "2.5") == PageRank(WebGraphs.UKLite, 32, 5, 2.5))
  }

  test("diag takes a dataset and one k") {
    assert(parsed("diag", "uk-lite", "64") == Diag(WebGraphs.UKLite, 64))
  }

  test("an unknown command is named") {
    rejected("sweep", "uk-lite", "64")("'sweep'")
    rejected()("no command")
  }

  test("a non-integer or non-positive k is named") {
    rejected("partition", "uk-lite", "x")("k", "'x'")
    rejected("partition", "uk-lite", "4,0,16")("k", "'0'")
    rejected("partition", "uk-lite", "4,")("k", "''")
    rejected("pagerank", "uk-lite", "-3")("k", "'-3'")
    rejected("diag", "uk-lite", "0")("k", "'0'")
  }

  test("an unknown dataset lists the known ones") {
    rejected("diag", "nope", "64")("'nope'", "uk-lite")
  }

  test("bad optional arguments and extra arguments are named") {
    rejected("partition", "uk-lite", "64", "metis")("'metis'")
    rejected("pagerank", "uk-lite", "32", "ten")("iters", "'ten'")
    rejected("pagerank", "uk-lite", "32", "10", "-1")("rtt_ms", "'-1'")
    rejected("diag", "uk-lite", "64", "extra")("diag")
  }
}
