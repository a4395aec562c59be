package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

/** The benchmark's own checker: each bad output counts as one failed
  * operation, and good outputs count as attempted only. */
class CheckerSpec extends AnyFunSuite {
  private val k = 4
  private val nE = 8
  private val tau = 1.0 // L_max = ⌈1·8/4⌉ = 2
  private val good = Array(0, 0, 1, 1, 2, 2, 3, 3)

  private def partition(c: Checker, part: Array[Int]) =
    c.attempt("partition")(part)(Checks.assignment(_, k, nE, tau))

  private val reference = Array(0.25, 0.25, 0.25, 0.25)

  test("valid assignments and ranks pass") {
    val c = new Checker
    partition(c, good)
    c.attempt("pagerank")(reference.clone())(Checks.ranks(_, reference))
    assert(c.attempted == 2 && c.failed == 0, c.problems)
  }

  test("an out-of-range partition is one failed operation") {
    val c = new Checker
    partition(c, Array(0, 0, 1, 1, 2, 2, 3, 4))
    assert(c.attempted == 1 && c.failed == 1)
    assert(c.problems.head.contains("outside [0,4)"))
  }

  test("an over-full partition is one failed operation") {
    val c = new Checker
    partition(c, Array(0, 0, 0, 1, 2, 2, 3, 3))
    assert(c.attempted == 1 && c.failed == 1)
    assert(c.problems.head.contains("L_max=2"))
  }

  test("a rank vector off by 1e-6 is one failed operation") {
    val c = new Checker
    val off = reference.clone()
    off(1) += 1e-6
    c.attempt("pagerank")(off)(Checks.ranks(_, reference))
    assert(c.attempted == 1 && c.failed == 1)
    assert(Checks.maxAbsErr(off, reference) > 1e-9)
  }

  test("bad outputs of one run are each counted") {
    val c = new Checker
    partition(c, good)
    partition(c, Array(0, 0, 1, 1, 2, 2, 3, 4))
    partition(c, Array(0, 0, 0, 1, 2, 2, 3, 3))
    val off = reference.clone()
    off(0) -= 1e-6
    c.attempt("pagerank")(off)(Checks.ranks(_, reference))
    assert(c.attempted == 4 && c.failed == 3)
  }

  test("an assignment hash that changes between repetitions fails") {
    val c = new Checker
    val h = (p: Array[Int]) => c.same("assignment", Checks.hash(p).toString)
    c.attempt("partition")(good)(h)
    c.attempt("partition")(good.clone())(h)
    c.attempt("partition")(good.reverse)(h)
    assert(c.attempted == 3 && c.failed == 1)
  }

  test("an operation that throws is a failed operation") {
    val c = new Checker
    assert(c.attempt("ingest")(throw new IllegalStateException("boom"))(_ => Nil).isEmpty)
    assert(c.attempted == 1 && c.failed == 1)
  }

  test("tail is the highest percentile with ten samples beyond it") {
    val xs = (1 to 40).map(_.toDouble)
    assert(Stats.tail(xs) == Some((30.0, 75.0)))
    assert(Stats.tail(xs.take(10)).isEmpty)
    assert(Stats.median(Seq(3.0, 1.0, 2.0, 10.0)) == 2.5)
  }
}
