package repro

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.core.{Clugp, EdgeStream, Metrics}
import repro.gas.{GasEngine, ReferenceComponents, ReferencePageRank}

/** The DataFrames `Blocks.writeColumns` builds from primitive arrays. Each
  * task writes its rows into one reused `UnsafeRow`, so every operator that
  * keeps rows must see them copied: each case reads one such DataFrame by
  * `collect`, from its cache, sorted, repartitioned and unioned with itself,
  * and checks every read returns exactly the rows of the source arrays under
  * the schema the program has always declared. */
class WriteColumnsSpec extends SparkSpec {

  private def field(name: String, t: DataType) = StructField(name, t, nullable = false)

  /** Each read of `df` returns `want`: the plain collect in `want`'s order
    * when `ordered`, sorted by the unique long column `key` after `orderBy`,
    * and as the same multiset otherwise (twice over for the union). */
  private def assertRows(df: DataFrame, schema: StructType, want: Seq[Row], key: String,
                         ordered: Boolean): Unit = {
    assert(df.schema == schema)
    def bag(rows: Seq[Row]) = rows.groupMapReduce(_.toSeq)(_ => 1)(_ + _)
    val first = df.collect().toSeq
    if (ordered) assert(first == want, "collect order")
    assert(bag(first) == bag(want), "collect")
    val cached = df.cache()
    try {
      assert(cached.count() == want.length)
      assert(bag(cached.collect().toSeq) == bag(want), "cache")
    } finally cached.unpersist(blocking = true)
    val k = schema.fieldIndex(key)
    assert(df.orderBy(key).collect().toSeq == want.sortBy(_.getLong(k)), "orderBy")
    assert(bag(df.repartition(3).collect().toSeq) == bag(want), "repartition(3)")
    assert(bag(df.union(df).collect().toSeq) == bag(want ++ want), "union")
  }

  test("webGraph rows survive collect, cache, orderBy, repartition and union") {
    val spec = WebGraphs.Tiny
    // the Catalyst reference yields the generator's rows at 16 range partitions
    val leaf = "spark.sql.leafNodeDefaultParallelism"
    val before = spark.conf.getOption(leaf)
    spark.conf.set(leaf, 16L)
    val want = try CatalystWebGraph.of(spark, spec).select("src", "dst", "id").collect().toSeq
               finally before.fold(spark.conf.unset(leaf))(spark.conf.set(leaf, _))
    assert(want.nonEmpty)
    assertRows(spec.df(spark), StructType(Seq(field("src", LongType), field("dst", LongType), field("id", LongType))),
      want, "id", ordered = false)
  }

  private lazy val stream = {
    val t = TestGraphs.tiny(spark).take(4000)
    TestGraphs.fromPairs(t.src.indices.map(i => (t.src(i).toLong, t.dst(i).toLong)))
  }
  private lazy val part = Clugp.run(stream, 8).part

  private val assignmentSchema = StructType(Seq(field("id", LongType), field("src", LongType),
    field("dst", LongType), field("part", IntegerType)))

  test("assignmentDF rows survive collect, cache, orderBy, repartition and union, in edge order") {
    val want = stream.src.indices.map(i => Row(i.toLong, stream.src(i).toLong, stream.dst(i).toLong, part(i)))
    assertRows(Metrics.assignmentDF(spark, stream, part), assignmentSchema, want, "id", ordered = true)
  }

  test("PageRank rows survive collect, cache, orderBy, repartition and union, bit for bit") {
    val assigned = Metrics.assignmentDF(spark, stream, part)
    val want = ReferencePageRank.ranks(spark, assigned).toSeq.map { case (v, r) => Row(v, r) }
    assert(want.length == stream.numVertices)
    assertRows(GasEngine.pageRank(spark, assigned), StructType(Seq(field("v", LongType), field("rank", DoubleType))),
      want, "v", ordered = false)
  }

  test("connected-component rows survive collect, cache, orderBy, repartition and union") {
    val root = ReferenceComponents.labels(stream.src, stream.dst, stream.numVertices)
    val least = root.indices.groupMapReduce(root(_))(identity)(math.min)
    val want = root.indices.map(v => Row(v.toLong, least(root(v)).toLong))
    val (labels, _) = GasEngine.connectedComponents(spark, Metrics.assignmentDF(spark, stream, part))
    assertRows(labels, StructType(Seq(field("v", LongType), field("component", LongType))), want, "v",
      ordered = false)
  }

  test("distributed CLUGP rows survive collect, cache, orderBy, repartition and union") {
    val edges = WebGraphs.Tiny.df(spark)
    val df = Clugp.partitionDistributed(spark, edges, 8, numSlices = 4)
    val want = df.collect().toSeq
    assert(want.map(_.getLong(0)).distinct.length == EdgeStream.fromDF(edges).numEdges, "one row per edge")
    assertRows(df, assignmentSchema, want, "id", ordered = true)
  }

  test("writeColumns widens Int columns into long fields and rejects a column type that does not fit, naming the field") {
    val schema = StructType(Seq(field("key", LongType), field("part", IntegerType)))
    def write(columns: Seq[Array[_]]) =
      Blocks.writeColumns(spark, spark.sparkContext.parallelize(Seq(columns), 1), schema).collect()
    assert(write(Seq(Array(1L, 2L), Array(3, 4))).toSeq == Seq(Row(1L, 3), Row(2L, 4)))
    assert(write(Seq(Array(7, -1), Array(3, 4))).toSeq == Seq(Row(7L, 3), Row(-1L, 4)))
    for ((columns, name) <- Seq(Seq(Array(1L), Array(2L)) -> "part", Seq(Array(1.0), Array(2)) -> "key")) {
      val e = intercept[Exception](write(columns))
      val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
      assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] && c.getMessage.contains(name)),
        causes.mkString(" / "))
    }
  }
}
