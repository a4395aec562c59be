package repro.partitioners

import repro.core.EdgeStream

/** PowerGraph's random edge placement ("Hashing" in the paper's Table I):
  * each edge goes to `hash(u, v) mod k`. Zero mutable state — the
  * paper's Fig. 6 counts its space as 0.
  */
final class HashingPartitioner extends StreamingPartitioner {
  override val name = "Hashing"

  override protected def assign(stream: EdgeStream, k: Int): (Array[Int], Long) = {
    val out = new Array[Int](stream.numEdges)
    var i = 0
    while (i < out.length) {
      out(i) = mix(stream.src(i).toLong * 0x9E3779B97F4A7C15L + stream.dst(i)) % k
      i += 1
    }
    (out, 0L)
  }

  @inline private def mix(x: Long): Int = {
    var h = x
    h ^= h >>> 33; h *= 0xFF51AFD7ED558CCDL; h ^= h >>> 33
    ((h & Long.MaxValue) % Int.MaxValue).toInt
  }
}

/** Degree-Based Hashing (Xie et al., NeurIPS'14): hash the endpoint with
  * the smaller *partial* degree — high-degree vertices get cut, which
  * suits power-law graphs. State: one 4-byte partial-degree counter per
  * vertex.
  */
final class DbhPartitioner extends StreamingPartitioner {
  override val name = "DBH"

  override protected def assign(stream: EdgeStream, k: Int): (Array[Int], Long) = {
    val nV  = stream.numVertices
    val deg = new Array[Int](nV)
    val out = new Array[Int](stream.numEdges)
    var i = 0
    while (i < out.length) {
      val u = stream.src(i); val v = stream.dst(i)
      deg(u) += 1; deg(v) += 1
      val pick = if (deg(u) <= deg(v)) u else v
      out(i) = hash(pick) % k
      i += 1
    }
    (out, 4L * nV)
  }

  @inline private def hash(x: Int): Int = {
    var h = x.toLong * 0x9E3779B97F4A7C15L
    h ^= h >>> 33; h *= 0xC2B2AE3D27D4EB4FL; h ^= h >>> 29
    ((h & Long.MaxValue) % Int.MaxValue).toInt
  }
}
