(** Meridian-style closest-node discovery (Wong, Slivkins & Sirer, SIGCOMM
    2005) — a third baseline alongside Vivaldi and GNP.

    Meridian forgoes coordinates entirely: every node keeps {e rings} of
    peers at exponentially increasing RTT ranges; to find the node closest
    to a target, the query holder asks its ring members near the target's
    estimated distance to probe the target directly and forwards the query
    to the best prober while the improvement beats the [beta] threshold.

    Simplifications kept honest for our comparison: rings are built from
    ping measurements over the simulated map (the gossip that maintains
    them is charged to the warm-up, not the query), and each search
    accounts the probes it issues so protocol cost is comparable with the
    landmark scheme's traceroute. *)

type t

type params = {
  ring_base_ms : float;  (** Inner ring boundary; ring i covers
                             [base * 2^(i-1), base * 2^i). *)
  rings : int;
  members_per_ring : int;
  beta : float;  (** Forward only if the best prober improves RTT by this
                     factor (original paper uses 0.5). *)
}

val default_params : params
(** base 2 ms, 8 rings, 4 members per ring, beta = 0.5. *)

type search_result = {
  found : int;  (** The closest discovered peer. *)
  rtt_ms : float;  (** Its measured RTT to the target. *)
  forwarding_hops : int;
  probes_sent : int;  (** Target pings issued by ring members. *)
  elapsed_ms : float;
      (** Protocol time of the search: per step, the slowest parallel probe
          relay, plus the forwarding hop — comparable with the time a
          [Nearby.Protocol.join] takes to complete. *)
}

val build :
  ?latency:Topology.Latency.t ->
  params ->
  Traceroute.Route_oracle.t ->
  peer_routers:Topology.Graph.node array ->
  rng:Prelude.Prng.t ->
  t
(** Construct every peer's rings (the steady-state a running Meridian
    overlay converges to).  Candidates per ring are sampled uniformly among
    the peers whose RTT falls in the ring's range. *)

val peer_count : t -> int
val ring_of : t -> peer:int -> ring:int -> int list
(** Members of one ring (for tests). *)

val closest_search :
  ?exclude:(int -> bool) -> t -> target_router:Topology.Graph.node -> entry:int -> search_result
(** Walk the overlay from [entry] toward the peer closest to a target
    attached at [target_router].  [exclude] removes peers from
    consideration (e.g. the target itself when it is already a member).
    @raise Invalid_argument on an empty overlay or a bad/excluded entry. *)

val k_nearest :
  ?exclude:(int -> bool) -> t -> target_router:Topology.Graph.node -> entry:int -> k:int -> int list
(** The search's final peer plus its ring members, ranked by measured RTT
    to the target — Meridian's natural k-NN answer.  At most [k],
    deduplicated, never containing a peer whose id equals [-1]. *)
