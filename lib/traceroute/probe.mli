(** Traceroute emulation.

    Walks the oracle route hop by hop the way the TTL-expiry tool does,
    subject to the imperfections of real probing: unresponsive routers
    (recorded as {!Path.Anonymous}), a TTL ceiling that can cut the record
    short, and per-probe RTT measurements with noise.  The probe {e cost}
    (number of TTL-limited packets sent) is reported so experiments can trade
    discovery quality against measurement traffic (extension E4). *)

type config = {
  max_ttl : int;  (** Give up after this many hops (default 64). *)
  drop_prob : float;  (** Per-hop probability of an anonymous reply (default 0). *)
  probes_per_hop : int;  (** Packets per TTL, as in classic traceroute (default 1). *)
}

val default_config : config

type result = { path : Path.t; probes_sent : int; rtt_ms : float option }
(** [rtt_ms] is the measured round-trip to the destination (with noise) when
    the trace completed and a latency table was supplied. *)

val run :
  ?config:config ->
  ?latency:Topology.Latency.t ->
  ?rng:Prelude.Prng.t ->
  Route_oracle.t ->
  src:Topology.Graph.node ->
  dst:Topology.Graph.node ->
  result
(** [run oracle ~src ~dst] emulates one traceroute.  Without [rng], probing
    is perfect (no drops, no noise) regardless of [drop_prob].  The endpoints
    themselves always respond ([src] knows itself; [dst] answers the final
    probe directly). *)

val ping :
  ?latency:Topology.Latency.t ->
  ?rng:Prelude.Prng.t ->
  Route_oracle.t ->
  src:Topology.Graph.node ->
  dst:Topology.Graph.node ->
  float
(** One RTT measurement along the forwarding route (2x one-way latency, plus
    5% multiplicative noise when [rng] is given); [infinity] when
    unreachable.  Hop-count routing without a latency table counts 1 ms per
    link. *)

val closest :
  ?latency:Topology.Latency.t ->
  ?rng:Prelude.Prng.t ->
  Route_oracle.t ->
  src:Topology.Graph.node ->
  Topology.Graph.node array ->
  Topology.Graph.node * float
(** [closest oracle ~src dsts] pings every destination in array order, as
    {!ping} would one by one, and returns the one with the least RTT (ties
    to the lower id) with that RTT; [infinity] when none is reachable.
    The destinations must not be empty. *)
