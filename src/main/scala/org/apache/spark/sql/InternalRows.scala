package org.apache.spark.sql

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.StructType

/** A DataFrame over rows already in Spark's internal form, the last step of
  * Spark's own DataFrame-from-`Row`s path without its per-row encoder.
  * `internalCreateDataFrame` is Spark-internal, hence this package. */
object InternalRows {
  def toDF(spark: SparkSession, rows: RDD[InternalRow], schema: StructType): DataFrame =
    spark.asInstanceOf[classic.SparkSession].internalCreateDataFrame(rows, schema)
}
