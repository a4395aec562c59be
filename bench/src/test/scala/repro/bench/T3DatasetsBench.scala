package repro.bench

import repro.{SparkSpec, TestGraphs, WebGraphs}

/** Paper Table III — dataset statistics. Our synthetic substitutes sit at
  * ~1/1000 of the originals; the table reports realized |V|, |E| and an
  * estimated on-disk size (16 B/edge, matching the paper's edge-list
  * accounting order of magnitude). |V|, |E| and the order-sensitive hash
  * of the stream's `(src, dst)` columns fingerprint each dataset.
  */
class T3DatasetsBench extends SparkSpec {

  test("Table III: dataset statistics") {
    val paper = Map(
      "uk-lite"      -> ("uk-2002", "19M", "0.3B"),
      "arabic-lite"  -> ("arabic-2005", "22M", "0.6B"),
      "webbase-lite" -> ("webbase-2001", "118M", "1.0B"),
      "it-lite"      -> ("it-2004", "41M", "1.5B"),
      "twitter-lite" -> ("twitter", "41M", "1.4B"),
    )
    val rows = WebGraphs.all.map { spec =>
      val s = BenchData.stream(spark, spec.name)
      val seen = s.degrees.count(_ > 0)
      val (src, pv, pe) = paper(spec.name)
      Seq(spec.name, src, seen.toString, s.numEdges.toString,
        f"${16.0 * s.numEdges / 1e6}%.1f MB", pv, pe, f"${TestGraphs.streamHash(s)}%016x")
    }
    BenchData.emit("T3 datasets (synthetic, ~1/1000 scale)",
      Seq("alias", "paper_source", "V", "E", "size_est", "paper_V", "paper_E", "stream_hash"),
      rows)

    // scale sanity: relative |E| ordering mirrors the paper
    val e = WebGraphs.all.map(sp => sp.name -> BenchData.stream(spark, sp.name).numEdges).toMap
    assert(e("uk-lite") < e("arabic-lite"))
    assert(e("arabic-lite") < e("webbase-lite"))
    assert(e("webbase-lite") < e("it-lite"))
  }
}
