package repro

import scala.annotation.switch
import scala.collection.mutable.ArrayBuilder
import scala.reflect.ClassTag

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, InternalRows, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.codegen.UnsafeRowWriter
import org.apache.spark.sql.classic.ClassicConversions.castToImpl
import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType, StructField, StructType}

/** Primitive-array helpers shared by the jobs that ship arrays between
  * blocks: the generator's dedup blocks, the stream build, the GAS
  * engine's edge and master blocks, and the DataFrames built from arrays. */
private[repro] object Blocks {

  /** The `names` columns of `df` cast to long, one primitive array each per
    * partition, read from `InternalRow`s, never `Row`s, with the first
    * column the partition saw null (read as 0): the one way DataFrame edges
    * become arrays. */
  def readLongs(df: DataFrame, names: Seq[String]): RDD[(Array[Array[Long]], Option[String])] =
    castToImpl(df.select(names.map(df(_).cast("long")): _*)).queryExecution.toRdd.mapPartitions { it =>
      val columns = Array.fill(names.length)(new ArrayBuilder.ofLong)
      var nullColumn = Option.empty[String]
      it.foreach { r =>
        if (nullColumn.isEmpty && r.anyNull) nullColumn = names.indices.find(r.isNullAt).map(names)
        var c = 0
        while (c < columns.length) { columns(c).addOne(r.getLong(c)); c += 1 }
      }
      Iterator((columns.map(_.result()), nullColumn))
    }

  /** A DataFrame of `schema` holding the rows of `blocks`, in block order:
    * row `i` of a block is element `i` of each of its columns, one per
    * field, an `Array[Long]`, `Array[Int]` or `Array[Double]` of the
    * field's type (an `Array[Int]` may fill a long field). The one way
    * arrays become a DataFrame, the reverse of [[readLongs]]: each task
    * writes every row into one reused `UnsafeRow`, as Spark's own row
    * serializer does, so no `Row` is built or boxed. Every value is written
    * non-null.
    *
    * @throws IllegalArgumentException in the task, if a column's type
    *         does not fit its field
    */
  def writeColumns(spark: SparkSession, blocks: RDD[_ <: Seq[Array[_]]], schema: StructType): DataFrame = {
    val fields = schema.fields
    InternalRows.toDF(spark, blocks.mapPartitions { it =>
      val w = new UnsafeRowWriter(fields.length)
      it.flatMap { block =>
        val columns = block.map(c => c: AnyRef).toArray
        val kinds = fields.indices.map(c => columnKind(columns(c), fields(c))).toArray
        val n = java.lang.reflect.Array.getLength(columns(0))
        new Iterator[InternalRow] {
          private var i = 0
          def hasNext: Boolean = i < n
          def next(): InternalRow = {
            w.reset(); w.zeroOutNullBytes()
            var c = 0
            while (c < kinds.length) {
              (kinds(c): @switch) match {
                case LongColumn   => w.write(c, columns(c).asInstanceOf[Array[Long]](i))
                case IntAsLong    => w.write(c, columns(c).asInstanceOf[Array[Int]](i).toLong)
                case IntColumn    => w.write(c, columns(c).asInstanceOf[Array[Int]](i))
                case DoubleColumn => w.write(c, columns(c).asInstanceOf[Array[Double]](i))
              }
              c += 1
            }
            i += 1
            w.getRow
          }
        }
      }
    }, schema)
  }

  private final val LongColumn = 0
  private final val IntAsLong = 1
  private final val IntColumn = 2
  private final val DoubleColumn = 3

  /** How [[writeColumns]] writes `column` into `field`. */
  private def columnKind(column: AnyRef, field: StructField): Int = (column, field.dataType) match {
    case (_: Array[Long], LongType)      => LongColumn
    case (_: Array[Int], LongType)       => IntAsLong
    case (_: Array[Int], IntegerType)    => IntColumn
    case (_: Array[Double], DoubleType)  => DoubleColumn
    case _ => throw new IllegalArgumentException(
      s"a ${column.getClass.getSimpleName} column cannot fill ${field.name}: ${field.dataType.simpleString}")
  }

  /** @throws IllegalArgumentException naming the first of `nullColumns` */
  def requireNoNull(nullColumns: Iterable[Option[String]]): Unit =
    nullColumns.flatten.headOption.foreach(c => throw new IllegalArgumentException(s"edge column $c holds a null"))

  /** Messages `(to, (from, payload))` placed by sender block id, so every
    * fold over them runs in sender order, whatever the fetch order. */
  def bySender[M <: AnyRef : ClassTag](p: Int, msgs: Iterator[(Int, (Int, M))]): Array[M] = {
    val out = new Array[M](p)
    msgs.foreach { case (_, (from, m)) => out(from) = m }
    out
  }

  /** `order` stably sorted by `key(order(i))`, a key in `[0, n)` per element:
    * one counting pass. */
  def countingSort(order: Array[Int], key: Array[Int], n: Int): Array[Int] = {
    val start = new Array[Int](n + 1)
    var i = 0
    while (i < order.length) { start(key(order(i)) + 1) += 1; i += 1 }
    var k = 1
    while (k <= n) { start(k) += start(k - 1); k += 1 }
    val out = new Array[Int](order.length)
    i = 0
    while (i < order.length) {
      val e = order(i)
      out(start(key(e))) = e; start(key(e)) += 1
      i += 1
    }
    out
  }

  /** Dense ids `0 until size` for `Long` keys, in first-insertion order: an
    * open-addressing table (linear probing, at most half full) of primitive
    * keys and ids, so nothing is boxed. Every `Long` is a valid key.
    *
    * @param what     what the keys stand for, named by the size guard
    * @param expected keys the table is first sized for; it grows past them
    * @param limit    most distinct keys it takes
    */
  final class LongIndex(what: String, expected: Int = 16, limit: Int = LongIndex.MaxKeys) {
    private var capacity = LongIndex.capacityFor(expected)
    private var shift = 64 - Integer.numberOfTrailingZeros(capacity)
    private var keys = new Array[Long](capacity)
    private var ids = new Array[Int](capacity) // id + 1 of the key in each slot, 0 where empty
    private var n = 0

    /** Number of distinct keys added. */
    def size: Int = n

    /** The id of `k`, which becomes id `size` if it is new.
      *
      * @throws IllegalArgumentException if `k` is new and the index holds
      *         `limit` keys already
      */
    def add(k: Long): Int = {
      var i = slot(k)
      while (ids(i) != 0) {
        if (keys(i) == k) return ids(i) - 1
        i = (i + 1) & (capacity - 1)
      }
      require(n < limit, s"more than $limit distinct $what")
      keys(i) = k; ids(i) = n + 1
      n += 1
      if (2 * n > capacity) grow()
      n - 1
    }

    /** The id of `k`, or -1 if it was never added. */
    def apply(k: Long): Int = {
      var i = slot(k)
      while (ids(i) != 0) {
        if (keys(i) == k) return ids(i) - 1
        i = (i + 1) & (capacity - 1)
      }
      -1
    }

    /** The distinct keys, ascending. */
    def sortedKeys: Array[Long] = {
      val out = new Array[Long](n)
      var j = 0
      var i = 0
      while (i < capacity) {
        if (ids(i) != 0) { out(j) = keys(i); j += 1 }
        i += 1
      }
      java.util.Arrays.sort(out)
      out
    }

    /** Per id, the rank of its key among the distinct keys. */
    def ranks: Array[Int] = {
      val sorted = sortedKeys
      val out = new Array[Int](n)
      var r = 0
      while (r < n) { out(apply(sorted(r))) = r; r += 1 }
      out
    }

    /** Fibonacci hashing: the top bits of `k · 2⁶⁴/φ` pick the home slot. */
    private def slot(k: Long): Int =
      ((k * 0x9E3779B97F4A7C15L) >>> shift).toInt

    private def grow(): Unit = {
      val (oldKeys, oldIds) = (keys, ids)
      capacity *= 2
      shift -= 1
      keys = new Array[Long](capacity)
      ids = new Array[Int](capacity)
      var j = 0
      while (j < oldIds.length) {
        if (oldIds(j) != 0) {
          var i = slot(oldKeys(j))
          while (ids(i) != 0) i = (i + 1) & (capacity - 1)
          keys(i) = oldKeys(j); ids(i) = oldIds(j)
        }
        j += 1
      }
    }
  }

  object LongIndex {
    /** Most keys an index can hold: its table, at most half full, stays
      * within the largest power-of-two array length, 2³⁰ slots. */
    val MaxKeys: Int = 1 << 29

    /** The table size for `expected` keys: a power of two, at least 16 and
      * twice `expected`, at most 2³⁰. */
    private def capacityFor(expected: Int): Int = {
      var c = 16
      while (c < 2L * expected && c < (1 << 30)) c *= 2
      c
    }
  }
}
