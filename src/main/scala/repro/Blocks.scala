package repro

import scala.reflect.ClassTag

/** Primitive-array helpers shared by the jobs that ship arrays between
  * blocks: the generator's dedup blocks, the stream build and the GAS
  * engine's edge and master blocks. */
private[repro] object Blocks {

  /** Sorts `a` in place; returns its distinct values. */
  def sortedDistinct(a: Array[Long]): Array[Long] = {
    java.util.Arrays.sort(a)
    var n = 0
    var i = 0
    while (i < a.length) {
      if (n == 0 || a(i) != a(n - 1)) { a(n) = a(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(a, n)
  }

  /** Messages `(to, (from, payload))` placed by sender block id, so every
    * fold over them runs in sender order, whatever the fetch order. */
  def bySender[M <: AnyRef : ClassTag](p: Int, msgs: Iterator[(Int, (Int, M))]): Array[M] = {
    val out = new Array[M](p)
    msgs.foreach { case (_, (from, m)) => out(from) = m }
    out
  }
}
