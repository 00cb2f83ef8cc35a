(** Event-driven timing of the discovery protocols (extension E5).

    The paper's motivation is {e setup delay}: a newcomer must know good
    neighbors before playback can start.  This module runs joins on the
    {!Simkit.Engine} clock so the two approaches are compared in the same
    simulated milliseconds:

    - proposed scheme: ping all landmarks in parallel (wait for the slowest
      reply), run one traceroute toward the winner (sequential TTL probes:
      the per-hop RTTs accumulate), then one RPC to the management server;
    - Vivaldi: the newcomer is only done after [rounds] gossip rounds of
      [round_period_ms] each (plus nothing else — we even grant it free
      server access to the coordinate directory).

    Two server paths share the measurement phase.  The {e direct} path
    ({!create}) schedules the whole join as one event against a single
    server — the original behavior, preserved byte-for-byte.  The
    {e resilient} path ({!create_resilient}) issues the server round
    through {!Simkit.Rpc} against a {!Cluster}: per-call timeouts, retries
    with backoff, and failover to another replica when the closest one is
    suspected.  Either way a join now always terminates — [on_complete] or
    [on_failure], never a silent stall. *)

type t

val create :
  ?latency:Topology.Latency.t ->
  engine:Simkit.Engine.t ->
  server_router:Topology.Graph.node ->
  Server.t ->
  t
(** Direct path: one server attached at [server_router]; the final RPC pays
    the RTT to it.  Same answers as a 1-replica cluster with a loss-free
    network, under a different measurement-time model: this path waits
    for the slowest landmark ping and sums one RTT per traceroute hop,
    while the resilient path charges {!Server.measurement_duration_ms}.
    The same join can read about 2.5x longer here (1,020 against 408 ms on
    a 2,000-router latency-weighted map with 8 landmarks). *)

val create_resilient :
  ?latency:Topology.Latency.t -> rpc:Simkit.Rpc.t -> Cluster.t -> t
(** Resilient path: joins measure locally, then register through [rpc]
    against the cluster, failing over between replicas per
    {!Cluster.target}.  The engine is the RPC layer's engine. *)

val server : t -> Server.t
(** The configuration-authority server (replica 0 of the cluster). *)

val cluster : t -> Cluster.t

val join :
  ?rng:Prelude.Prng.t ->
  ?on_trace:(Simkit.Span.context -> unit) ->
  ?on_failure:(unit -> unit) ->
  t ->
  peer:int ->
  attach_router:Topology.Graph.node ->
  k:int ->
  on_complete:(Server.peer_info -> (int * int) list -> unit) ->
  unit
(** Schedule the full two-round join starting now; [on_complete] fires at
    the simulated completion time with the registration info and the
    neighbor reply.  State changes (registration) happen at reply time, not
    at call time.  When the server round cannot complete — every RPC
    attempt timed out, or the lone direct server is down — [on_failure]
    (default: do nothing) fires instead; exactly one of the two callbacks
    runs per join.

    On the resilient path with a span sink attached (the RPC layer's),
    each join opens one root ["join"] span on the engine clock; the
    ["measure"] phase, every ["rpc_attempt"] and the server-side
    registration subtree hang off it, so a join that failed over between
    replicas is still one causal tree under one trace id.  [on_trace]
    fires synchronously with that root context (the null context in
    direct mode or with tracing off) — experiments use it to tag their
    latency samples with the join's trace id. *)

val join_many :
  ?rng:Prelude.Prng.t ->
  ?on_trace:(Simkit.Span.context -> unit) ->
  ?on_failure:(unit -> unit) ->
  t ->
  entries:(int * Topology.Graph.node) array ->
  k:int ->
  on_complete:(int -> Server.peer_info -> (int * int) list -> unit) ->
  unit
(** Batched {!join}: every [(peer, attach_router)] entry measures locally
    (identical rng draws and probe accounting to n singleton joins), then
    the batch registers through ONE server round — the recorded paths
    packed into a single {!Wire.Path_report_batch}, applied server-side
    with one {!Cluster.handle_registration_batch} and replicated as one
    fan-out message per replica.  The round waits for the slowest
    measurement (newcomers measure concurrently) and originates at the
    first entry's attach router — the model is an aggregation point (a
    flash crowd's common access router, a gateway re-registering its
    tenants) shipping the batch upstream.  [on_complete peer info reply]
    fires once per entry in entry order at the shared reply time;
    [on_failure] fires once for the whole batch when the server round
    cannot complete.  With a span sink (resilient mode), the batch is one
    root ["join_batch"] span with a single ["measure"] child; [on_trace]
    sees that root context. *)

val estimate_join_delay : t -> attach_router:Topology.Graph.node -> float
(** The deterministic protocol time a loss-free [join] charges from this
    router (no jitter): max landmark RTT + sequential traceroute + RTT to
    the expected server replica (direct server, or the closest
    believed-live one). *)

val vivaldi_setup_delay : rounds:int -> round_period_ms:float -> float
(** Time before a Vivaldi newcomer has completed the given number of
    measurement rounds. *)
