(** Event-driven timing of the discovery protocol (extension E5).

    The paper's motivation is {e setup delay}: a newcomer must know good
    neighbors before playback can start.  This module runs joins on the
    {!Simkit.Engine} clock, so experiments and the replicated service
    time the same join in the same simulated milliseconds:

    + the newcomer measures locally ({!Client.measure_join}): it pings
      every landmark, sending the first {!Client.prefix_hops} TTL probes
      toward each with the ping, and the first reply names the closest;
      then it sends every further TTL toward that one at once.  Its first
      round leaves after {!Client.first_round_ms}: the RTT to the winning
      landmark, or to hop {!Client.prefix_hops} when that is later;
    + it then uploads those hops ({!Client.prefix}) and asks for neighbors
      in one {!Wire.Path_prefix} frame, one {!Simkit.Rpc} call against a
      {!Cluster}: per-attempt deadlines of twice the round trip, retries
      with backoff, and failover to another replica when the closest one
      is suspected.  The replica completes the route from the
      first prefix router its landmark tree holds
      ({!Cluster.handle_prefix}).  On a loss-free network the call costs
      one RTT to the closest replica;
    + when the tree holds none of the prefix's routers the reply is
      [Continue]: the newcomer uploads the whole trace with its neighbor
      request in a second call ({!Cluster.handle_registration}), to the
      replica that asked, once the trace's last answer is in
      ({!Client.duration_ms} after the start; usually before the
      [Continue] arrives).  A join takes at most two rounds.

    A join always terminates — [on_complete] or [on_failure], never a
    silent stall.  Vivaldi's setup time, for comparison, is
    {!vivaldi_setup_delay}. *)

type t

val create_resilient : ?client:Client.t -> rpc:Simkit.Rpc.t -> Cluster.t -> t
(** Joins measure locally with [client] (default: a {!Client.create} over
    replica 0's oracle and landmarks), then register through [rpc] against
    the cluster, failing over between replicas per {!Cluster.target}.  The
    engine is the RPC layer's engine.  A lone server is a
    {!Cluster.single} on the RPC layer's transport.
    @raise Invalid_argument on a cluster without replicas. *)

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
(** Schedule the whole join starting now; [on_complete] fires at the
    simulated completion time with the registration info and the neighbor
    reply.  State changes (registration) happen at reply time, not at call
    time.  On a loss-free network the completion time is
    {!Client.first_round_ms} plus the RTT to the closest live replica; a
    continued join takes the later of that and {!Client.duration_ms}, then
    a second server RTT.  When a server round cannot complete
    — every RPC attempt timed out, or no replica is live — [on_failure]
    (default: do nothing) fires instead; exactly one of the two callbacks
    runs per join.

    With a span sink attached (the RPC layer's), each join opens one root
    ["join"] span; the ["measure"] phase (until the first round leaves), a
    continued join's ["rest"] (its wait for the trace's last answer, empty
    when that came first), every ["rpc_attempt"] and the server-side spans
    under the attempt that was served hang off it, so a join that failed
    over between replicas, or went round twice, is still one causal tree
    under one trace id.  [on_trace] fires synchronously with that root
    context (the null context with tracing off) — experiments use it to
    tag their latency samples with the join's trace id. *)

val vivaldi_setup_delay : rounds:int -> round_period_ms:float -> float
(** Time before a Vivaldi newcomer has completed the given number of
    measurement rounds. *)
