package repro.gas

import repro.core.{Clugp, EdgeStream}
import repro.{SparkSpec, TestGraphs}

class EdgeBlockSpec extends SparkSpec {

  /** The inputs `BlockGraph.load` hands each of `p` edge blocks when the
    * edges arrive in `chunks` contiguous input partitions: per block, one
    * `(src, dst, part)` array triple per input partition that routes edges
    * to it (undirected: every edge also reversed, on the same part). */
  private def routed(src: Array[Long], dst: Array[Long], part: Array[Int], p: Int,
                     undirected: Boolean, chunks: Int = 3): IndexedSeq[Seq[(Array[Long], Array[Long], Array[Int])]] = {
    val n = src.length
    val perChunk = (0 until chunks).map { c =>
      val edges = (c * n / chunks until (c + 1) * n / chunks).flatMap { e =>
        val fwd = (src(e), dst(e), part(e))
        if (undirected) Seq(fwd, (dst(e), src(e), part(e))) else Seq(fwd)
      }
      edges.groupBy(e => java.lang.Math.floorMod(e._3, p))
    }
    (0 until p).map { b =>
      perChunk.flatMap(_.get(b)).map(es => (es.map(_._1).toArray, es.map(_._2).toArray, es.map(_._3).toArray))
    }
  }

  /** Asserts the index-based builds equal the sort-and-search references,
    * field by field: every edge block, then every master block built from
    * the edge blocks' announcements. */
  private def assertSameLayout(src: Array[Long], dst: Array[Long], part: Array[Int], p: Int,
                               undirected: Boolean, clue: String): Unit = {
    val blocks = routed(src, dst, part, p, undirected).zipWithIndex.map { case (in, b) =>
      val got = EdgeBlock.build(b, p, in.iterator)
      val want = ReferenceEdgeBlock.build(b, p, in.iterator)
      val at = s"$clue, p=$p, undirected=$undirected, block $b"
      assert(got.id == want.id, at)
      assert(got.vids.sameElements(want.vids), s"$at: vids")
      assert(got.src.sameElements(want.src), s"$at: src")
      assert(got.rep.sameElements(want.rep), s"$at: rep")
      assert(got.repVertex.sameElements(want.repVertex), s"$at: repVertex")
      assert(got.groupStart.sameElements(want.groupStart), s"$at: groupStart")
      assert(got.repStart.sameElements(want.repStart), s"$at: repStart")
      got
    }
    val announced = blocks.flatMap(MasterBlock.announce(_, p)).groupBy(_._1)
    for (m <- 0 until p) {
      val in = announced.getOrElse(m, IndexedSeq.empty)
      // both builds place the messages by sender, whatever their order
      val got = MasterBlock.build(m, p, in.reverseIterator)
      val want = ReferenceMasterBlock.build(m, p, in.iterator)
      val at = s"$clue, p=$p, undirected=$undirected, master block $m"
      assert(got.id == want.id, at)
      assert(got.ids.sameElements(want.ids), s"$at: ids")
      assert(got.outDeg.sameElements(want.outDeg), s"$at: outDeg")
      assert(got.outRoute.length == p && got.inRoute.length == p, s"$at: routes")
      for (b <- 0 until p) {
        assert(got.outRoute(b).sameElements(want.outRoute(b)), s"$at: outRoute($b)")
        assert(got.inRoute(b).sameElements(want.inRoute(b)), s"$at: inRoute($b)")
      }
    }
  }

  private def columns(s: EdgeStream) = (s.src.map(_.toLong), s.dst.map(_.toLong))

  test("build equals the reference on Tiny and TinySocial assignments") {
    for ((name, s) <- Seq("tiny" -> TestGraphs.tiny(spark), "tiny-social" -> TestGraphs.tinySocial(spark));
         k <- Seq(4, 8)) {
      val (src, dst) = columns(s)
      val part = Clugp.run(s, k).part
      for (p <- Seq(3, 4); undirected <- Seq(false, true))
        assertSameLayout(src, dst, part, p, undirected, s"$name k=$k")
    }
  }

  test("build equals the reference with duplicate edges, negative ids and a negative part") {
    val s = TestGraphs.tiny(spark).take(600)
    val (src0, dst0) = columns(s)
    // every edge twice on its own part, and a third time on another one
    val src = src0 ++ src0 ++ src0.map(v => if (v % 5 == 0) -v - 1 else v)
    val dst = dst0 ++ dst0 ++ dst0.map(v => (v << 33) + 7)
    val part = Array.tabulate(src.length)(e => if (e == 5) -2 else (e % src0.length) % 6 + e / src0.length)
    for (p <- Seq(2, 4); undirected <- Seq(false, true))
      assertSameLayout(src, dst, part, p, undirected, "duplicates")
  }

  test("build equals the reference when some blocks get no edges") {
    val s = TestGraphs.tinySocial(spark).take(800)
    val (src, dst) = columns(s)
    val part = Array.tabulate(src.length)(e => if (e % 3 == 0) 2 else 6)
    for (p <- Seq(4, 5); undirected <- Seq(false, true)) {
      val in = routed(src, dst, part, p, undirected)
      assert(in.count(_.isEmpty) >= 2, s"p=$p should leave blocks empty")
      assertSameLayout(src, dst, part, p, undirected, "empty blocks")
    }
    val empty = EdgeBlock.build(1, 4, Iterator.empty)
    assert(empty.numEdges == 0 && empty.vids.isEmpty && empty.repStart.sameElements(new Array[Int](5)))
  }
}
