package repro

import scala.collection.mutable.ArrayBuilder
import scala.util.hashing.MurmurHash3

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.Blocks.{LongIndex, bySender, writeColumns}

/** The synthetic web graphs that stand in for the paper's WebGraph crawls
  * (Table III): [[webGraph]], a deterministic power-law generator with
  * host-level locality, and [[sampleGraph]], its id prefix.
  * [[WebGraphs]] holds the named dataset specs built on it.
  */
object SynthData {
  /** Synthetic power-law web graph, streamed in generator id order.
    *
    * Substitute for the WebGraph crawls of the CLUGP paper (uk-2002,
    * arabic-2005, webbase-2001, it-2004), which are multi-GB downloads.
    * Real web graphs combine three properties the paper's results rest on:
    *
    *  - **power-law degrees** (§II-C): sources and global link targets
    *    are bounded-Zipf rank draws — low ids are the crawl-root hubs;
    *  - **host-level clustering + crawl locality**: vertices come in
    *    consecutive-id blocks of `hostSize` (a crawler enumerates a host
    *    before moving on), and a `pIntra` fraction of links stay inside
    *    the source's host block (measured 70–90 % on real crawls). This
    *    is the structure CLUGP's streaming clustering exploits;
    *  - **neighbor-host links**: most cross-host links go to *related*
    *    hosts crawled adjacently (id-nearby blocks), not to global hubs —
    *    only a small `pHub` fraction hits crawl-wide hubs. Adjacent hosts
    *    produce adjacent clusters, which the cluster partitioning game
    *    then co-places (the paper's §V-D locality observation).
    *
    * `pIntra = pNear = 0` yields a Twitter-like social graph — power-law
    * but with no host structure — which is exactly why CLUGP's advantage
    * shrinks on Twitter in the paper's Fig. 4.
    *
    * [[repro.core.EdgeStream]] streams it in generator id order: sources
    * ascending, each source's edges by id. A host is one block of ids, so
    * the stream is host-sorted, not the BFS traversal the paper assumes
    * (§II fn. 1).
    * Self-loops and duplicate edges are removed (real crawls are simple
    * graphs; duplicates would distort hashing balance), keeping the copy
    * with the lowest id, so the realized edge count lands below `nEdges`.
    *
    * Deterministic in all arguments, on any core count: edge ids are drawn
    * in 16 fixed slices, each with its own seeded XORShift streams, and
    * dedup runs in 16 blocks by `src mod 16`, all on primitive arrays. The
    * draws are those of `rand(seed)` columns over a 16-partition
    * `spark.range(nEdges)`, so the rows equal those of the Catalyst plan
    * this generator replaced, run at 16 partitions.
    *
    * Columns: `src: Long, dst: Long, id: Long` (1-based vertex ids), non-null.
    *
    * @throws IllegalArgumentException if `nVertices` is outside
    *         `[1, Int.MaxValue]`, `nEdges` outside `[0, 16·Int.MaxValue]`
    *         (a slice's ids must span an `Int`), `hostSize < 1`, `pIntra`,
    *         `pNear` or their sum is outside `[0, 1]`, or a `q` equals 1
    */
  def webGraph(spark: SparkSession, nVertices: Long, nEdges: Long,
               hostSize: Long = 40, pIntra: Double = 0.75, pNear: Double = 0.21,
               hostOffsetScale: Double = 3.0,
               qOut: Double = 0.25, qIn: Double = 0.5, qIntra: Double = 0.3,
               seed: Long = 42): DataFrame = {
    require(nVertices >= 1 && nVertices <= Int.MaxValue,
      s"nVertices must be in [1, ${Int.MaxValue}], got $nVertices")
    require(nEdges >= 0 && nEdges <= Slices.toLong * Int.MaxValue,
      s"nEdges must be in [0, ${Slices.toLong * Int.MaxValue}], got $nEdges")
    require(hostSize >= 1, s"hostSize must be >= 1, got $hostSize")
    require(pIntra >= 0 && pIntra <= 1, s"pIntra must be in [0, 1], got $pIntra")
    require(pNear >= 0 && pNear <= 1, s"pNear must be in [0, 1], got $pNear")
    require(pIntra + pNear <= 1, s"pIntra + pNear must be in [0, 1], got ${pIntra + pNear}")
    for ((name, q) <- Seq("qOut" -> qOut, "qIn" -> qIn, "qIntra" -> qIntra))
      require(q != 1.0, s"$name must not be 1: the Zipf inverse CDF divides by 1 - q")
    val draw = WebGraphDraw(nVertices, nEdges, hostSize, pIntra, pNear, hostOffsetScale,
                            qOut, qIn, qIntra, seed)
    val slices = Slices
    val blocks = spark.sparkContext.parallelize(0 until slices, slices)
      .flatMap(draw.slice(_, slices))
      .partitionBy(new HashPartitioner(slices))
      .mapPartitions(msgs => Iterator(draw.firstCopies(bySender(slices, msgs), slices)))
    writeColumns(spark, blocks, EdgeSchema)
  }

  /** Slice and block count of [[webGraph]], fixed so its edges do not
    * depend on the core count. */
  private val Slices = 16

  private val EdgeSchema = StructType(Seq(
    StructField("src", LongType, nullable = false),
    StructField("dst", LongType, nullable = false),
    StructField("id", LongType, nullable = false)))

  /** First id of slice `p` of `slices` over ids `[0, n)`: `p·n/slices`, in
    * `BigInt` as Spark's `RangeExec` splits `spark.range(n)`. */
  private[repro] def sliceStart(n: Long, slices: Int, p: Int): Long =
    (BigInt(p) * n / slices).toLong

  /** Id-prefix sample of a web graph: the subgraph induced by the first
    * `fraction` of vertex ids (used for the paper's Fig. 5 size sweep).
    */
  def sampleGraph(edges: DataFrame, nVertices: Long, fraction: Double): DataFrame = {
    val keep = math.max(2L, (nVertices * fraction).toLong)
    edges.where(col("src") <= keep && col("dst") <= keep)
  }
}

/** The paper's five datasets (Table III), scaled ~1/1000 so a single
  * container reproduces the *shape* of every experiment. Relative
  * |V| : |E| ratios mirror the originals; Twitter-lite drops crawl
  * locality (`pLocal = 0`) because social graphs are not crawls.
  */
object WebGraphs {
  /** Spec of one synthetic dataset; `nE` is the generation target (the
    * realized count lands lower after self-loop/duplicate removal). */
  final case class GraphSpec(name: String, nV: Long, nE: Long,
                             hostSize: Long, pIntra: Double, pNear: Double,
                             qIn: Double, seed: Long) {
    def df(spark: SparkSession): DataFrame =
      SynthData.webGraph(spark, nV, nE, hostSize = hostSize,
                         pIntra = pIntra, pNear = pNear, qIn = qIn, seed = seed)
  }

  // paper: uk-2002 19M/0.3B, arabic-2005 22M/0.6B, webbase-2001 118M/1.0B,
  //        it-2004 41M/1.5B, twitter 41M/1.4B.  Generation targets are
  // inflated ~1.4× because self-loop/duplicate removal trims the output;
  // realized |E| (reported by T3DatasetsBench) lands near the 1/1000 mark.
  // hosts (and the neighbor-host locality radius) are small relative to
  // |V|/k even at k=256 — the real crawls' regime, where a partition
  // holds tens of thousands of vertices and V_max ≫ any neighborhood.
  // |V| is scaled less aggressively than |E| so that holds down-scale
  // (avg degree lands ~8–20, within the web-graph range).
  val UKLite      = GraphSpec("uk-lite",      60_000L,  480_000L,   10, 0.70, 0.26, 0.7, 11)
  val ArabicLite  = GraphSpec("arabic-lite",  70_000L,  900_000L,   12, 0.70, 0.26, 0.7, 12)
  val WebBaseLite = GraphSpec("webbase-lite", 150_000L, 1_500_000L, 12, 0.68, 0.28, 0.7, 13)
  val ITLite      = GraphSpec("it-lite",      100_000L, 2_200_000L, 14, 0.70, 0.26, 0.7, 14)
  // social graph: no host structure, heavier in-degree hubs
  val TwitterLite = GraphSpec("twitter-lite", 100_000L, 2_000_000L, 1,  0.0,  0.0,  0.55, 15)

  val webGraphs: Seq[GraphSpec] = Seq(UKLite, ArabicLite, WebBaseLite, ITLite)
  val all: Seq[GraphSpec]       = webGraphs :+ TwitterLite

  /** The dataset of [[all]] named `name`.
    *
    * @throws IllegalArgumentException if none is; the message lists the names
    */
  def byName(name: String): GraphSpec =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown dataset '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** Small graph for unit tests (~28k edges). */
  val Tiny = GraphSpec("tiny", 4_000L, 36_000L, 10, 0.70, 0.26, 0.5, 7)
  /** Tiny social graph (no host structure) for unit tests. */
  val TinySocial = GraphSpec("tiny-social", 4_000L, 36_000L, 1, 0.0, 0.0, 0.55, 8)
}

/** The draws of [[SynthData.webGraph]]. Each replays, value for value, the
  * Catalyst plan the generator used to be (kept as the test reference) run
  * over `spark.range(nEdges)` in 16 partitions: a `rand(s)` column of
  * partition `p` reads a [[XorShift]] seeded with `s + p`, and the
  * arithmetic is Spark's — `StrictMath.pow` (reached through a bracket
  * around `Math.pow`, [[WebGraphDraw.Zipf]]) and `StrictMath.log`, `/` in
  * doubles, `pmod` as `floorMod`, double-to-long casts truncating.
  */
private final case class WebGraphDraw(
    nV: Long, nEdges: Long, hostSize: Long, pIntra: Double, pNear: Double,
    hostOffsetScale: Double, qOut: Double, qIn: Double, qIntra: Double, seed: Long) {
  import WebGraphDraw.{Edges, Zipf}

  /** The edges of slice `p` of `slices`, self-loops dropped, routed to
    * dedup block `src mod slices`: one message `(block, (p, (keys,
    * offsets)))` per block that gets edges, 12 bytes per edge. */
  def slice(p: Int, slices: Int): Iterator[(Int, (Int, Edges))] = {
    val nHosts = (nV + hostSize - 1) / hostSize
    val (srcRank, hubRank, slotRank) = (new Zipf(nV, qOut), new Zipf(nV, qIn), new Zipf(hostSize, qIntra))
    def rand(offset: Int) = new XorShift(seed + offset + p)
    val (srcU, hubU, slotU, mixU, signU, slot2U) = (rand(0), rand(1), rand(2), rand(3), rand(5), rand(6))
    // the plan used the offset magnitude twice inside `when`, and codegen
    // gave each use its own rand(seed + 4) state, drawn only on its branch
    val (negOffU, posOffU) = (rand(4), rand(4))
    val keys = Array.fill(slices)(new ArrayBuilder.ofLong)
    val offsets = Array.fill(slices)(new ArrayBuilder.ofInt)
    val start = SynthData.sliceStart(nEdges, slices, p)
    val end = SynthData.sliceStart(nEdges, slices, p + 1)
    var id = start
    while (id < end) {
      // every state draws as in the plan; only the branch `mix` picks pays
      // for its Zipf pow or offset log
      val uSrc = srcU.nextDouble()
      val uHub = hubU.nextDouble()
      val uSlot = slotU.nextDouble()
      val uSlot2 = slot2U.nextDouble()
      val negative = signU.nextDouble() < 0.5
      val uOff = (if (negative) negOffU else posOffU).nextDouble()
      val mix = mixU.nextDouble()
      val s = srcRank(uSrc)
      val d =
        if (mix < pIntra) // intra-host: a zipf slot within the source's host block
          math.min(nV, (s - 1) - Math.floorMod(s - 1, hostSize) + slotRank(uSlot))
        else if (mix < pIntra + pNear) { // neighbor host: a zipf slot within a nearby host block
          val offMag = math.ceil(-StrictMath.log(uOff + 1e-12) * hostOffsetScale).toLong
          val hostOffset = if (negative) -offMag else offMag
          val nearHost = math.min(nHosts - 1,
            math.max(0L, math.floor((s - 1).toDouble / hostSize).toLong + hostOffset))
          math.min(nV, nearHost * hostSize + slotRank(uSlot2))
        } else hubRank(uHub)
      if (s != d) {
        val b = (s % slices).toInt
        keys(b).addOne(s << 32 | d); offsets(b).addOne((id - start).toInt)
      }
      id += 1
    }
    (0 until slices).iterator.map(b => (b, (p, (keys(b).result(), offsets(b).result()))))
      .filter(_._2._2._1.nonEmpty)
  }

  /** The first copy of each edge among the messages of `slices` slices,
    * indexed by sender, which arrive in slice order and so in id order: the
    * copy with the lowest id, a key's first insert. Columns `(src, dst,
    * id)`, in id order. */
  def firstCopies(bySlice: Array[Edges], slices: Int): Seq[Array[Long]] = {
    val n = bySlice.iterator.filter(_ != null).map(_._1.length).sum
    val (src, dst, id) = (new Array[Long](n), new Array[Long](n), new Array[Long](n))
    val seen = new LongIndex("edges", n)
    for (p <- bySlice.indices if bySlice(p) != null) {
      val (keys, offsets) = bySlice(p)
      val start = SynthData.sliceStart(nEdges, slices, p)
      var e = 0
      while (e < keys.length) {
        val kept = seen.size
        if (seen.add(keys(e)) == kept) {
          src(kept) = keys(e) >>> 32; dst(kept) = keys(e) & 0xFFFFFFFFL; id(kept) = start + offsets(e)
        }
        e += 1
      }
    }
    Seq(src, dst, id).map(java.util.Arrays.copyOf(_, seen.size))
  }
}

private object WebGraphDraw {
  /** Edges as columns: the key `src << 32 | dst`, which fits a `Long`
    * because `src` and `dst` lie in `[1, Int.MaxValue]`, and the id's
    * offset from its slice's first id, which fits an `Int` because a slice
    * spans at most `Int.MaxValue` ids. */
  type Edges = (Array[Long], Array[Int])

  /** Relative half-width of [[Zipf.rank]]'s bracket around `Math.pow`; each
    * pow lies within 1 ulp of the exact power, so they part by ≤ 4.4e-16. */
  private val PowBracket = 1e-12

  /** Bounded-Zipf rank draw: a rank in `[1, n]` with pmf ∝ `r^(-q)`
    * (q ≠ 1), via the inverse CDF `r = (1 + u·(n^(1−q) − 1))^(1/(1−q))`.
    * The *degree-distribution* exponent this induces over ranks is
    * `α = 1 + 1/q` — q≈0.9 gives the web's α≈2.1. The constants use
    * `math.pow`, as the reference computed them on the driver.
    */
  final class Zipf(n: Long, q: Double) {
    private val a = math.pow(n.toDouble, 1.0 - q) - 1.0
    private val e = 1.0 / (1.0 - q)
    def apply(u: Double): Long = rank(u * a + 1.0)
    /** `clamp(StrictMath.pow(b, e))`, the reference's rank: `clamp` is
      * monotone, so where both ends of the bracket around the intrinsic
      * `Math.pow` clamp alike, `StrictMath`'s value, inside it, does too. */
    def rank(b: Double): Long = {
      val m = Math.pow(b, e)
      val lo = clamp(m * (1.0 - PowBracket))
      if (lo == clamp(m * (1.0 + PowBracket))) lo else clamp(StrictMath.pow(b, e))
    }
    private def clamp(power: Double): Long = math.min(n, math.max(1L, power.toLong))
  }
}

/** Spark's `XORShiftRandom` (private to Spark), the generator of
  * `rand(seed)`: partition `p` of a `rand(s)` column draws from
  * `new XorShift(s + p)`. The seed is scrambled by MurmurHash3 as Spark's
  * `hashSeed` does, and [[nextDouble]] is `java.util.Random`'s over it.
  */
private[repro] final class XorShift(init: Long) {
  private var state = {
    val bytes = java.nio.ByteBuffer.allocate(8).putLong(init).array()
    val lo = MurmurHash3.bytesHash(bytes, MurmurHash3.arraySeed)
    val hi = MurmurHash3.bytesHash(bytes, lo)
    (hi.toLong << 32) | (lo.toLong & 0xFFFFFFFFL)
  }

  private def next(bits: Int): Long = {
    state ^= state << 21
    state ^= state >>> 35
    state ^= state << 4
    state & ((1L << bits) - 1)
  }

  /** `(next(26) << 27 + next(27)) · 2⁻⁵³`, uniform in `[0, 1)`. */
  def nextDouble(): Double = ((next(26) << 27) + next(27)).toDouble / (1L << 53)
}
