package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.Blocks.{LongIndex, countingSort}

class BlocksSpec extends AnyFunSuite {

  test("LongIndex numbers keys in first-insertion order") {
    val index = new LongIndex("keys")
    assert(Seq(5L, -3L, 5L, 99L, -3L, 7L).map(index.add) == Seq(0, 1, 0, 2, 1, 3))
    assert(index.size == 4)
    assert(Seq(5L, -3L, 99L, 7L, 6L).map(index(_)) == Seq(0, 1, 2, 3, -1))
    assert(index.sortedKeys.toSeq == Seq(-3L, 5L, 7L, 99L))
    assert(index.ranks.toSeq == Seq(1, 0, 3, 2))
  }

  test("LongIndex grows past its initial capacity and keeps every id") {
    val rnd = new scala.util.Random(3)
    val keys = Array.fill(20000)(rnd.nextLong() % 50000) // repeats on purpose
    val index = new LongIndex("keys", expected = 4)
    val ids = keys.map(index.add)
    val first = keys.distinct
    assert(index.size == first.length)
    val idOf = first.zipWithIndex.toMap
    first.foreach(k => assert(index(k) == idOf(k), s"key $k"))
    assert(ids.toSeq == keys.toSeq.map(idOf))
    val sorted = first.sorted
    assert(index.sortedKeys.toSeq == sorted.toSeq)
    val rank = index.ranks
    first.indices.foreach(i => assert(sorted(rank(i)) == first(i)))
  }

  test("LongIndex tells apart keys a << 32 | b that share their low halves") {
    val keys = for (a <- 0L until 3000L; b <- Seq(0L, 1L, 0xFFFFFFFFL)) yield (a << 32) | b
    val index = new LongIndex("pairs")
    assert(keys.map(index.add) == keys.indices)
    assert(keys.map(index(_)) == keys.indices)
    assert(index((3000L << 32) | 1L) == -1)
  }

  test("LongIndex takes Long.MinValue, Long.MaxValue and negative keys") {
    val keys = Seq(0L, Long.MinValue, -1L, Long.MaxValue, Long.MinValue + 1, 1L, -(1L << 40))
    val index = new LongIndex("keys")
    assert(keys.map(index.add) == keys.indices)
    assert(index.add(Long.MinValue) == 1 && index(Long.MaxValue) == 3)
    assert(index.sortedKeys.toSeq == keys.sorted)
    assert(index.ranks.toSeq == keys.map(k => keys.sorted.indexOf(k)))
  }

  test("LongIndex refuses a distinct key past its limit, naming what it counts") {
    val index = new LongIndex("vertices", limit = 3)
    Seq(1L, 2L, 3L, 2L).foreach(index.add)
    assert(index.add(3L) == 2)
    val e = intercept[IllegalArgumentException](index.add(4L))
    assert(e.getMessage.contains("3") && e.getMessage.contains("vertices"), e.getMessage)
    assert(index.size == 3 && index(4L) == -1)
    assert(LongIndex.MaxKeys == (1 << 29))
  }

  test("countingSort is stable") {
    val key = Array(2, 0, 1, 0, 2, 1, 0)
    assert(countingSort(Array.range(0, 7), key, 3).toSeq == Seq(1, 3, 6, 2, 5, 0, 4))
    assert(countingSort(Array(6, 5, 4, 3, 2, 1, 0), key, 3).toSeq == Seq(6, 3, 1, 5, 2, 4, 0))
    assert(countingSort(Array.emptyIntArray, Array.emptyIntArray, 0).isEmpty)
  }
}
