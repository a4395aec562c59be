package repro.partitioners

import repro.core.EdgeStream

/** One partitioner's output over a stream.
  *
  * @param part       partition id per edge, parallel to the stream
  * @param spaceBytes bytes of mutable state the algorithm held (the
  *                   paper's Fig. 6 space metric): hash functions count 0,
  *                   degree arrays 4·|V|, replica tables |V|·k bits, …
  * @param timeMs     wall-clock partitioning time
  */
final case class PartitionAssignment(part: Array[Int], spaceBytes: Long, timeMs: Long)

/** A vertex-cut streaming partitioner (paper Problem 1): assign every
  * edge of the stream to one of `k` partitions. Implementations are the
  * 6 algorithms of the paper's Table I.
  */
trait StreamingPartitioner {
  /** Display name used in the experiment tables. */
  def name: String

  /** The stream order this algorithm performs best on (§VI-A: BFS for
    * CLUGP and Mint, random for the rest); benches honour it. */
  def preferredOrder: String = "random"

  /** Assign each edge of `stream` to a partition in `[0, k)`, timing the
    * run.
    * @throws IllegalArgumentException if `k` is below 1
    */
  final def partition(stream: EdgeStream, k: Int): PartitionAssignment = {
    require(k >= 1, s"number of partitions must be >= 1, got $k")
    val t0 = System.nanoTime()
    val (part, space) = assign(stream, k)
    PartitionAssignment(part, space, (System.nanoTime() - t0) / 1000000)
  }

  /** The algorithm behind [[partition]], for `k >= 1`: the partition id
    * per edge and the bytes of state held, as in [[PartitionAssignment]]. */
  protected def assign(stream: EdgeStream, k: Int): (Array[Int], Long)
}
