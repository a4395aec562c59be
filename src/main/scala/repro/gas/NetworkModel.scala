package repro.gas

/** Analytic cluster cost model — our substitute for the paper's 32-node
  * docker/PowerGraph deployment with PUMBA-injected RTT (Fig. 8).
  *
  * A bulk-synchronous iteration costs
  *
  *   max_p |p| / edgeRate                (compute: slowest partition)
  * + messagesPerIteration / msgRate      (communication volume)
  * + syncRounds · rtt                    (barrier latency, 2 rounds/iter:
  *                                        gather-sync and apply-sync)
  *
  * Rates are per *node* (all partitions work concurrently), calibrated to
  * commodity-CPU/1 GbE magnitudes; the experiments only compare
  * partitioners under the same model, so the shape — who wins, by what
  * factor — is rate-independent.
  *
  * @param edgeRate  edges a node processes per second
  * @param msgRate   synchronization messages the network carries per second
  * @param rttSeconds round-trip time (PUMBA sweep: 0.010 … 0.100)
  * @param syncRoundsPerIter barrier rounds per GAS iteration
  */
final case class NetworkModel(
    edgeRate: Double = 50e6,
    msgRate: Double = 2e6,
    rttSeconds: Double = 0.0,
    syncRoundsPerIter: Int = 2) {

  /** Seconds of one GAS iteration over the given topology. */
  def iterationSeconds(topo: GasTopology): Double =
    split(topo) match { case (compute, communication) => compute + communication }

  /** Seconds of a full run of `iters` iterations. */
  def runSeconds(topo: GasTopology, iters: Int): Double =
    iters * iterationSeconds(topo)

  /** Split of one iteration into (computeSeconds, communicationSeconds) —
    * the two bars of Fig. 8 (a)/(b). */
  def split(topo: GasTopology): (Double, Double) =
    (topo.maxEdges / edgeRate,
     topo.messagesPerIteration / msgRate + syncRoundsPerIter * rttSeconds)
}
