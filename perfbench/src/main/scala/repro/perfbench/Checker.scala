package repro.perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

import repro.core.EdgeStream

/** Correctness checks of single outputs; each returns its violations. */
object Checks {

  /** Every edge is on a partition in `[0, k)`, and the largest partition
    * holds at most `L_max = ⌈τ|E|/k⌉` edges. */
  def assignment(part: Array[Int], k: Int, numEdges: Int, tau: Double): Seq[String] = {
    val errs = mutable.ArrayBuffer[String]()
    if (part.length != numEdges) errs += s"assignment has ${part.length} entries for $numEdges edges"
    val sizes = new Array[Long](k)
    var outOfRange = 0
    part.foreach { p => if (p < 0 || p >= k) outOfRange += 1 else sizes(p) += 1 }
    if (outOfRange > 0) errs += s"$outOfRange edges assigned outside [0,$k)"
    val lMax = math.max(1L, math.ceil(tau * numEdges / k.toDouble).toLong)
    val largest = if (k == 0) 0L else sizes.max
    if (largest > lMax) errs += s"largest partition holds $largest edges > L_max=$lMax"
    errs.toSeq
  }

  /** Largest absolute difference; NaN when the lengths differ or a value is NaN. */
  def maxAbsErr(a: Array[Double], b: Array[Double]): Double =
    if (a.length != b.length) Double.NaN
    else a.indices.foldLeft(0.0)((m, i) => {
      val d = math.abs(a(i) - b(i))
      if (d.isNaN || m.isNaN) Double.NaN else math.max(m, d)
    })

  /** PageRank ranks sum to 1 within 1e-6 and match the exact driver-side
    * reference within 1e-9 max absolute error. */
  def ranks(ranks: Array[Double], reference: Array[Double]): Seq[String] = {
    val sum = ranks.sum
    val err = maxAbsErr(ranks, reference)
    Seq(
      Option.unless(math.abs(sum - 1.0) <= 1e-6)(s"ranks sum to $sum"),
      Option.unless(err <= 1e-9)(s"ranks differ from the reference by $err"),
    ).flatten
  }

  /** Order-sensitive 64-bit hash of int arrays (splitmix64 finalizer per
    * element, chained). */
  def hash(arrays: Array[Int]*): Long = {
    var h = 0x9E3779B97F4A7C15L
    arrays.foreach { a =>
      var i = 0
      while (i < a.length) {
        var z = h ^ (a(i).toLong + 0x9E3779B97F4A7C15L)
        z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
        z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
        h = (z ^ (z >>> 31)) + i
        i += 1
      }
      h = h * 31 + a.length
    }
    h
  }
}

/** |V|, |E| and an order-sensitive hash of the edge stream. */
final case class Fingerprint(vertices: Int, edges: Int, hash: Long) {
  def hex: String = f"$hash%016x"
}

object Fingerprint {
  def of(s: EdgeStream): Fingerprint = Fingerprint(s.numVertices, s.numEdges, Checks.hash(s.src, s.dst))
}

/** Counts operations and the ones that failed. An operation fails when it
  * throws or its output violates a check; [[same]] adds the check that a
  * value repeats across operations (e.g. the CLUGP assignment hash). */
final class Checker {
  var attempted = 0L
  var failed = 0L
  val problems = mutable.ArrayBuffer[String]()
  private val firstSeen = mutable.LinkedHashMap[String, String]()

  /** Runs `body` as one operation and checks its result with `verify`. The
    * result is returned even when a check fails, so a run continues. */
  def attempt[A](op: String)(body: => A)(verify: A => Seq[String]): Option[A] = {
    attempted += 1
    try {
      val out = body
      val errs = try verify(out) catch { case NonFatal(e) => Seq(s"check threw $e") }
      if (errs.nonEmpty) fail(op, errs)
      Some(out)
    } catch { case NonFatal(e) => fail(op, Seq(e.toString)); None }
  }

  /** Violation if `value` differs from the first value seen under `key`. */
  def same(key: String, value: String): Seq[String] = {
    val first = firstSeen.getOrElseUpdate(key, value)
    if (first == value) Nil else Seq(s"$key $value differs from first $first")
  }

  def seen: collection.Map[String, String] = firstSeen

  private def fail(op: String, errs: Seq[String]): Unit = {
    failed += 1
    if (problems.length < 20) problems += s"$op: ${errs.mkString("; ")}"
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it, and that
    * percentile; `None` with fewer than eleven samples. */
  def tail(xs: Seq[Double]): Option[(Double, Double)] =
    if (xs.length < 11) None
    else {
      val s = xs.sorted
      val n = s.length
      Some((s(n - 11), 100.0 * (n - 10) / n))
    }
}
