package repro.gas

/** The reference for [[GasEngine.connectedComponents]]: exact driver-side
  * union-find over the primitive edge arrays. */
object ReferenceComponents {

  /** Component labels of the undirected graph `src`–`dst` over `nV`
    * vertices: the least vertex id of each vertex's component. */
  def labels(src: Array[Int], dst: Array[Int], nV: Int): Array[Int] = {
    val parent = Array.tabulate(nV)(identity)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    var i = 0
    while (i < src.length) {
      val a = find(src(i)); val b = find(dst(i))
      if (a != b) parent(math.max(a, b)) = math.min(a, b)
      i += 1
    }
    // component id = min vertex id in component
    Array.tabulate(nV)(find)
  }
}
