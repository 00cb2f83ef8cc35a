(** The newcomer's side of the join (paper §2, round 1): ping every
    landmark and keep the closest, then traceroute toward it.  The client
    needs no server: the wire report ({!Wire.Path_report}) of its
    measurement is the interface to {!Server.register_measured}. *)

type choice =
  | Closest  (** The paper's round 1: ping every landmark, keep the best. *)
  | Uniform
      (** Ablation: register under a uniformly random landmark (skips the
          ping round entirely, so it is cheaper but regionally blind). *)

type t

val create :
  ?truncate:Traceroute.Truncate.strategy ->
  ?probe_config:Traceroute.Probe.config ->
  ?latency:Topology.Latency.t ->
  ?choice:choice ->
  Traceroute.Route_oracle.t ->
  landmarks:Topology.Graph.node array ->
  t
(** Defaults: the full traceroute, {!Traceroute.Probe.default_config}, hop
    counts for delays, and [Closest].  A [Uniform] client draws from its
    own generator, seeded [0x5eed] at creation.
    @raise Invalid_argument on an empty landmark array. *)

type measurement = {
  landmark : Topology.Graph.node;  (** The chosen landmark. *)
  path : Traceroute.Path.t;  (** The recorded path, truncated per the tool. *)
  probes : int;  (** Total probe packets: the pings plus the traceroute's. *)
  landmarks_pinged : int;  (** Every landmark, or none for [Uniform]. *)
  ping_ms : float;  (** Round-1 duration: the RTT to the winning landmark. *)
  traceroute_ms : float;  (** One RTT to the landmark; TTL probes fly together. *)
  full_hops : int;  (** Hops of the trace before truncation. *)
}

val measure : ?rng:Prelude.Prng.t -> t -> attach_router:Topology.Graph.node -> measurement
(** Round 1 from [attach_router].  Deterministic without [rng] (perfect
    probes); with [rng], probe drops and RTT noise apply, drawn by the
    landmark choice first, then by the traceroute. *)

val prefix_hops : int
(** The hops a join's first round uploads: 2. *)

val measure_join : ?rng:Prelude.Prng.t -> t -> attach_router:Topology.Graph.node -> measurement
(** A join's measurement ({!Protocol.join}): {!measure}'s landmark, path,
    clock and draws, and its probes plus {!prefix_hops} TTL probes toward
    each other landmark pinged.  Those go with the pings, so the first
    round can leave once the closest landmark's echo is back
    ({!first_round_ms}); the rest of the TTLs toward it leave then, and
    the whole trace is in after {!duration_ms}. *)

val first_round_ms : t -> measurement -> float
(** When a join's first round leaves, from the start of its measurement:
    the later of the closest landmark's echo ([ping_ms]) and the RTT to
    hop {!prefix_hops} (to the landmark, on a route that short).  The RTT
    to hop h is [2 h] ms on hop counts and twice the latency over routers
    [0..h] on a latency table, without noise. *)

val prefix : measurement -> Topology.Graph.node array
(** The routers of the first {!prefix_hops} hops that answered, in route
    order from the attach router: what a join's first round uploads. *)

val duration_ms : measurement -> float
(** The one measurement clock, [ping_ms + traceroute_ms]: {!Protocol.join}
    waits this long before its server round, and the server's [join_ms]
    stream records it. *)

val measure_span :
  ?dur:float -> Simkit.Span.sink -> parent:Simkit.Span.context -> peer:int -> measurement -> unit
(** The ["measure"] span under [parent]: from now, for [dur] (default
    {!duration_ms}), with the probe and hop counts. *)
