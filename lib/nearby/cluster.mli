(** Replicated management-server tier.

    [N] replicas each own a full {!Server.t} (any {!Registry_intf.S}
    backend).  Writes fan out: the replica that processes a registration
    pushes it to every other replica over the transport, as the part of
    its route they do not already store ({!Server.replication_prefix}).
    A replica that cannot complete the route refuses it, and the full
    report follows.  Reads are served
    by one replica — clients pick the closest {e believed-live} replica,
    where "believed" is a {!Simkit.Failure_detector} fed by per-replica
    heartbeats, and fail over to the next-closest on retry.  Replicas that
    miss writes (crashed, partitioned, lossy links) are healed by periodic
    anti-entropy over {!Server}'s bucket digests, which moves only the
    buckets that differ.

    A {!single}-replica cluster is one server on the transport with no
    failure detector: a lone server behind {!Protocol}, with the same join
    path and the same timing as the replicated tier. *)

type t

val single : transport:Simkit.Transport.t -> router:Topology.Graph.node -> Server.t -> t
(** Wrap one server as a 1-replica cluster on [transport], the transport
    the RPC layer rides on.  No failure detector watches it: {!target} is
    [Some 0] while the replica is alive and [None] after {!crash}.  The
    server clock is set to the engine, as {!create} does. *)

val create :
  ?detector_config:Simkit.Failure_detector.config ->
  ?recorder:Simkit.Flight_recorder.t ->
  ?spans:Simkit.Span.sink ->
  ?metrics:Simkit.Metrics.t ->
  transport:Simkit.Transport.t ->
  client_router:Topology.Graph.node ->
  make_server:(unit -> Server.t) ->
  ?restore_server:(string -> (Server.t, string) result) ->
  routers:Topology.Graph.node array ->
  unit ->
  t
(** One replica per entry of [routers] (each built by [make_server], which
    must produce servers over the same oracle and landmarks).  Starts a
    heartbeat watch on every replica, monitored from [client_router].
    [restore_server] is ignored: anti-entropy repairs each replica's own
    server in place, so nothing is rebuilt from a snapshot; the argument is
    accepted only so that existing callers still compile.
    [recorder] receives one ["cluster"]-kind flight-recorder event per
    membership change: crash, recover, suspicion, anti-entropy repair
    (["sync_repair"]), back-in-sync (with the measured recovery time), and the
    divergence/convergence edges of {!digest_check}.  [metrics] receives
    the [wire_replication_amplification] and [cluster_divergent_replicas]
    gauges and the labeled [cluster_digest_checks_total] counters.  Every
    replica's server clock is set to the engine, so registration stamps
    (report staleness) are in engine milliseconds.
    @raise Invalid_argument on an empty or duplicate router array. *)

val replica_count : t -> int
val replica_router : t -> int -> Topology.Graph.node
val server_of : t -> int -> Server.t
val is_alive : t -> int -> bool
val live_count : t -> int

val measurement_server : t -> Server.t
(** Replica 0's server, for readers of replica state. *)

val graph : t -> Topology.Graph.t
val trace : t -> Simkit.Trace.t
(** Counters: ["cluster_register"], ["cluster_duplicate_register"],
    ["cluster_replicate_send"/"_apply"/"_skip"] (replication messages
    carrying a registration, a NACK's resend included, and their
    outcomes), ["cluster_replicate_prefix"] (of those, route prefixes),
    ["cluster_replicate_nack"] (prefixes a replica refused),
    ["cluster_suspected"],
    ["cluster_crashes"], ["cluster_recoveries"], ["cluster_sync_rounds"],
    ["cluster_sync_union"] (entries pushed into the source),
    ["cluster_sync_restores"] (stragglers repaired),
    ["cluster_sync_buckets"] (buckets the repairs exchanged),
    ["cluster_sync_repaired"] (straggler registrations written or removed),
    ["cluster_sync_skipped"] (catch-up transfers the digest gate saved),
    ["cluster_sync_bytes"] (every byte repair moved: summaries, union
    pushes and catch-ups), ["cluster_client_report_bytes"],
    ["cluster_replica_bytes"], ["cluster_digest_checks"]; streams
    ["cluster_recovery_ms"] and ["cluster_antientropy_lag_ms"] (engine time
    from first detected divergence to detected reconvergence, one sample
    per episode). *)

(** {1 Divergence detection}

    Every registry maintains an order-independent content digest
    ({!Server.digest}), so "do the replicas hold the same state?" is one
    int64 compare per replica instead of a peer-set walk.  {!sync_round}
    runs a check at both ends of the round; experiments may call
    {!digest_check} on their own schedule (e.g. at failure-detector rate)
    for finer detection latency. *)

val digest_check : t -> int list
(** Compare every live replica's digest against the reference replica (the
    anti-entropy source rule: most registered peers, ties to the lowest
    id); returns the ids of divergent live replicas, [[]] when consistent
    (including 0/1 live).  Bumps ["cluster_digest_checks"]; with [metrics],
    updates the [cluster_divergent_replicas] gauge and the
    [cluster_digest_checks_total{result="consistent"|"divergent"}]
    counters.  Episode edges are recorded once: the first check seeing a
    mismatch emits a ["divergence"] flight-recorder event (with the
    offending replica ids) and starts the stopwatch; the first check
    seeing agreement again emits ["convergence"] and observes
    ["cluster_antientropy_lag_ms"].  Checks inside an episode record no
    events — no flapping. *)

val divergence_since : t -> float option
(** Engine time the current divergence episode was first detected, [None]
    while consistent. *)

val replication_amplification : t -> float
(** Bytes the cluster moves per byte a client uploads:
    [(client report bytes + replica fan-out bytes) / client report bytes].
    Client report bytes are every fresh upload a replica handled: a
    first round's {!Wire.Path_prefix} (answered or continued) and a full
    {!Wire.Path_report}.  Fan-out bytes are every replication message
    sent: route prefixes, full reports, and a refused prefix's NACK and
    resent report.  Above 1; not bounded by the replica count, since a
    replica may be sent more of a route than the client uploaded.  Anti-entropy snapshot traffic is excluded
    (repair cost, not write cost).  [nan] before the first report.  Mirrored as the [wire_replication_amplification] gauge when
    {!create} was given [~metrics]. *)

val fleet_trace : t -> Simkit.Trace.t
(** One merged fleet-wide trace: every replica's {!Server.trace} folded
    into a fresh trace via {!Simkit.Trace.merge_into} (counters add,
    latency quantiles come from the mergeable sketches — relative error
    at most {!Prelude.Sketch.default_alpha}), plus the cluster's own
    counters.  Dead replicas are included: their registered state
    survives a crash, and the fleet tail must not silently drop their
    samples. *)

val scrape : t -> into:Simkit.Metrics.t -> unit
(** Dimensional scrape: file each replica's {!Server.trace} into [into]
    under a [{replica="<i>"}] label, so per-replica series
    ([join_ms{replica="2"}], …) accumulate next to whatever else the
    registry holds.  Scraping twice double-counts — scrape into a fresh
    registry per export. *)

val replica_at : t -> router:Topology.Graph.node -> int
(** The replica hosted at [router], or -1: a lookup on every request a
    replica serves, so it allocates nothing. *)

val target : ?first:int -> t -> src:Topology.Graph.node -> attempt:int -> int option
(** Failover routing for attempt [n] (1-based) of an RPC from [src]:
    believed-live replicas sorted by (one-way delay from [src], id), entry
    [(n-1) mod live].  With [first], that replica heads the order while it
    is believed live, and attempt 2 goes to the closest other one.  [None]
    when every replica is suspected.  A
    {!single} cluster has no detector, so its one replica is believed live
    exactly while it is alive. *)

type answer =
  | Registered of { info : Server.peer_info; neighbors : (int * int) list; reply_bytes : int }
      (** The registration and the neighbor reply, with the size of the
          {!Wire.Neighbor_reply} carrying it, as the replica sized it
          ({!Server.sized_neighbors}). *)
  | Continue of { replica : int }
      (** Nothing registered: the client must send the rest, best to
          [replica], the one that asked. *)

val handle_registration :
  t ->
  replica:int ->
  peer:int ->
  attach_router:Topology.Graph.node ->
  measurement:Client.measurement ->
  k:int ->
  answer option
(** Server side of a join RPC carrying a whole trace (a continue round,
    or a caller with a full {!Client.measure}): register the client-measured path
    on [replica], fan the write out to the other replicas, and answer the
    neighbor query.  Each other replica is sent one
    {!Server.replication_prefix}: a {!Wire.Replica_prefix} it completes
    from its own copy of the donor's route, or the full report.  A replica
    that is down or already holds the peer skips it; one that cannot
    complete a prefix sends a {!Wire.Replica_nack} back, and the primary,
    if still up, answers with the full report.  All of it is charged as
    [kind="path_report"], [dir="replica"].  Idempotent — a retried RPC whose first reply was lost
    re-answers without re-registering.  [None] when the replica is down
    (the RPC times out); otherwise [Registered].  A fresh registration
    answers with {!Server.register_measured}'s info, which shares the
    measurement's path; a retry answers with {!Server.info}.

    Each fan-out target gets a ["replicate"] span under the ambient context
    (the RPC attempt), open from send to delivery and tagged
    applied/skipped/nacked; a resend after a NACK gets its own span under
    the refused one's.  The [spans] sink of {!create} should be the one the
    servers and the RPC layer write to (one id space per trace file). *)

val handle_prefix :
  t ->
  replica:int ->
  peer:int ->
  attach_router:Topology.Graph.node ->
  measurement:Client.measurement ->
  prefix:Topology.Graph.node array ->
  bytes:int ->
  k:int ->
  answer option
(** Server side of a join's first round ({!Wire.Path_prefix}):
    [measurement] is the client's {!Client.measure_join} and [prefix] the
    routers of its first hops that answered ({!Client.prefix}), the
    {!Wire.Path_prefix} payload, [bytes] long.  The replica
    completes the route ({!Server.register_prefix}), fans it out as
    {!handle_registration} does (the full report, when one is needed, is
    the route the replica stored) and answers the neighbor query; or,
    holding none of the prefix's routers, answers [Continue] and registers
    nothing — the client then sends its whole trace through
    {!handle_registration}.  Idempotent as {!handle_registration} is, and
    a retry's re-answer carries the fresh answer's info
    ({!Server.measured_info});
    [None] when the replica is down.  Every fresh first round counts its
    [bytes] in {!replication_amplification}'s denominator. *)

val crash : t -> int -> unit
(** Stop the replica: it answers no RPCs, applies no replication, sends no
    heartbeats.  Its registered state survives (stable storage). *)

val recover : t -> int -> unit
(** Restart a crashed replica with its on-disk state.  Re-arms its
    heartbeat watch from scratch — the fresh watch must not inherit the
    crashed incarnation's silence timer.  The replica counts as recovered
    (stream ["cluster_recovery_ms"]) when a sync round confirms its content
    digest matches the source's. *)

val sync_round : t -> unit
(** One anti-entropy round over the live replicas.  The source is the most
    complete live replica (most registered peers, ties to the lowest id).
    Each straggler whose {!Server.digest} differs from the source's sends
    its {!Server.bucket_summary}; only the buckets whose digests differ are
    exchanged.  First the union: every straggler pushes the entries of
    those buckets that the source lacks into the source.  Then the
    catch-up: the source's entries replace the straggler's in the buckets
    that still differ ({!Server.snapshot_buckets},
    {!Server.apply_buckets}).  A round therefore costs the summaries plus
    the differing buckets, not the member count.  Every byte (summaries
    included) is charged to the transport as [kind="snapshot"]; a
    straggler whose digest already matches moves none (counter
    ["cluster_sync_skipped"]).  Repair stamps only the registrations it
    writes.  Runs a {!digest_check} at both ends of the round, so
    divergence is detected no later than the next sync tick and
    reconvergence is recorded the moment the repair lands.  Emits one
    ["sync_round"] span (a root of its own trace) when a sink is
    attached. *)

val start_sync : t -> period_ms:float -> until:float -> unit
(** Schedule {!sync_round} every [period_ms] up to engine time [until].
    @raise Invalid_argument on a non-positive period. *)

val consistent : t -> bool
(** Every live replica holds the same content: equal {!Server.digest}s
    (same peers {e and} the same recorded paths), one int64 compare per
    replica. *)

val check_invariants : t -> unit
(** {!Server.check_invariants} on every replica, dead or alive. *)
