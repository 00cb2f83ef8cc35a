(** The management server: the server's side of the join (paper §2).

    Round 1 is the newcomer's ({!Client}): it pings every landmark and
    keeps the closest, then traceroutes toward it.  Round 2 is the
    server's: it registers the recorded path in that landmark's
    {!Path_tree} and answers the k registered peers with the smallest
    inferred distance.

    With several landmarks the server holds one path tree per landmark and
    answers a newcomer out of the tree of {e its} landmark — peers that
    chose the same closest landmark are exactly the regional candidates.
    When that tree cannot fill the request, the reply is topped up from the
    other trees (closest landmark first), which only matters for tiny
    populations. *)

type t

type peer_info = {
  attach_router : Topology.Graph.node;
  landmark : Topology.Graph.node;
  recorded_path : Traceroute.Path.t;
      (** From {!info}: the registered routers as a fully identified path
          from [attach_router] to [landmark].  Anonymous hops of the
          original trace are not kept, and a trace that stopped short ends
          at the appended landmark.  From a join: the measured path itself
          (from {!register_prefix}: the prefix the client traced). *)
  probes_spent : int;  (** Total probe packets this peer's join cost. *)
}
(** A view of one registration.  The server does not store it: a member's
    routers live only in its landmark's tree, whose array the member's
    slot in the server's per-slot arrays references. *)

val create :
  ?backend:(module Registry_intf.S) ->
  ?spans:Simkit.Span.sink ->
  Traceroute.Route_oracle.t ->
  landmarks:Topology.Graph.node array ->
  t
(** [backend] selects the per-landmark registry implementation (default
    {!Path_tree}); any module satisfying {!Registry_intf.S} plugs in and
    answers the same protocol.  [spans] (default {!Simkit.Span.noop})
    receives one span (tid = peer id) per unit of work the server does,
    under the ambient context ({!Simkit.Span.current}) when there is one.
    @raise Invalid_argument on an empty landmark array or duplicate
    landmarks. *)

val backend_name : t -> string
(** The [backend_name] of the registry backend this server was built with. *)

val registry_stats : t -> (string * int) list
(** The backend's {!Registry_intf.S.stats} summed across the per-landmark
    registries — uniform per-backend metrics, whatever the backend. *)

val introspection : t -> Registry_intf.introspection
(** The backend's {!Registry_intf.S.introspect} merged across the
    per-landmark registries (they partition the peers, so counts add and
    occupancies merge bucket-wise). *)

val oracle : t -> Traceroute.Route_oracle.t
val graph : t -> Topology.Graph.t
val landmarks : t -> Topology.Graph.node array
val peer_count : t -> int
val mem : t -> int -> bool

val info : t -> int -> peer_info option
(** The registration of a peer, built on demand from its slot and
    the routers its landmark tree holds. *)

val path_of : t -> int -> Topology.Graph.node array option
(** The routers registered for a peer, as its landmark tree stores them (a
    fresh copy); [None] when unregistered. *)

val attach_router : t -> int -> Topology.Graph.node option
(** The router a peer registered from, without building its {!info} view;
    [None] when unregistered. *)

val join :
  ?rng:Prelude.Prng.t -> t -> client:Client.t -> peer:int -> attach_router:Topology.Graph.node -> peer_info
(** Both rounds in process: {!register_measured} of [client]'s
    {!Client.measure} (with [rng] when given), traced as one root [join]
    span around the ["measure"] span and the registration that lasts at
    least {!Client.duration_ms}.
    @raise Invalid_argument when the peer id is already registered. *)

(** {1 Split join — the replication seam}

    A replicated cluster measures once at the client and registers the same
    recorded path on several replicas, so round 2 is exposed on its own. *)

val measured_info : attach_router:Topology.Graph.node -> Client.measurement -> peer_info
(** The info a join's answer carries: the attach router and the
    measurement's landmark, path and probe count.  A retried call's
    re-answer carries the same, so a join's info does not depend on which
    of its replies arrived. *)

val register_measured :
  t -> peer:int -> attach_router:Topology.Graph.node -> Client.measurement -> peer_info
(** Round 2 server side: register the measured path and account the join
    (counters, a [register] span).  Returns {!measured_info}.
    @raise Invalid_argument when already registered. *)

val register_prefix :
  t ->
  peer:int ->
  attach_router:Topology.Graph.node ->
  prefix:Topology.Graph.node array ->
  bytes:int ->
  Client.measurement ->
  peer_info option
(** A join's first round server side ({!Wire.Path_prefix}): [prefix] is
    the routers of the client's first hops that answered
    ({!Client.prefix}), the message's payload, and [m] the client's
    measurement ({!Client.measure_join}).  The registered route comes from
    [prefix] and the tree alone; [m] gives the landmark, and its probes,
    clock and path only feed the join's counters and the returned info.  The
    first prefix router, from the attach router on, that a member
    of [m.landmark]'s tree crosses ({!Registry_intf.S.member_through}) ends
    the prefix: the registered route is the routers before it, then that
    member's stored route from it to the landmark — the route a full trace
    records, since routes toward one landmark form a tree.  A prefix that
    already reached the landmark is registered as it is.  Either way the
    join is accounted as {!register_measured} accounts it, and the info
    is {!measured_info}'s.  [None],
    with nothing registered, when no router of the prefix is held and it
    stops short of the landmark: the client must send the rest
    ({!Wire.Continue}), counted as ["join_continue"] and charged with
    the [Continue] answer's bytes.  [bytes], the size of the
    {!Wire.Path_prefix} that carried the prefix (sized once, where the
    client built it), is charged either way.
    @raise Invalid_argument when already registered or the landmark is
    unknown. *)

val register_measured_batch :
  t -> (int * Topology.Graph.node * Client.measurement) array -> peer_info array
(** Round 2 for a whole batch of [(peer, attach_router, measurement)]
    entries: the batch is checked, then each entry is stored as
    {!register_measured} stores it, so registry state, per-peer counters
    and latency streams match n singleton calls.  What differs is what a
    batch changes on the wire: the accounting charges a single packed
    {!Wire.Path_report_batch}, and the batch is one [register_batch] span.
    Returns the infos in entry order, each sharing its measurement's path.
    @raise Invalid_argument when any peer is outside [\[0, 2^31)], already
    registered or repeated in the batch (nothing is applied). *)

val register_replica :
  t ->
  peer:int ->
  attach_router:Topology.Graph.node ->
  landmark:Topology.Graph.node ->
  path:Traceroute.Path.t ->
  probes_spent:int ->
  unit
(** Replication apply: store a registration measured and accounted on
    another replica.  Bumps only the ["replica_register"] counter — no join
    counters, no spans.  @raise Invalid_argument when the peer is already
    registered or the landmark is unknown. *)

val replication_prefix : t -> peer:int -> Wire.message option
(** What the other replicas are sent for [peer]'s fresh registration, when
    it can be shorter than the full report.  Walking its stored routers
    from the attach router toward the landmark, the first router that
    another member of the same landmark tree crosses
    ({!Registry_intf.S.member_through}) with the same stored route from
    there on ends a {!Wire.Replica_prefix}: the routers up to it, that
    member as the donor, and the stored probe cost.  [None] when no router
    qualifies (the tree's first member, a backend without a router index)
    or the stored route does not start at the attach router: the fan-out
    then builds and sends the full report.  Reads at most one bucket head
    and one path comparison per router. *)

val stored_report : t -> peer:int -> Wire.message
(** The {!Wire.Path_report} of the route stored for [peer], fully
    identified from its attach router: what a replica that cannot complete
    a prefix is resent.  @raise Not_found when unregistered. *)

val register_replica_prefix :
  t -> peer:int -> donor:int -> prefix:Topology.Graph.node array -> probes_spent:int -> bool
(** Replication apply of a {!Wire.Replica_prefix}: register [prefix]
    without its last router, followed by this server's stored route of
    [donor] from that router to its landmark, with attach router
    [prefix.(0)]; counted as {!register_replica} counts.  [false], with
    nothing changed, when the donor is not held here, its route does not
    cross the prefix's last router, or the prefix is empty or names a
    router outside {!graph}: the sender must then send the full report.
    @raise Invalid_argument when the peer is already registered. *)

val peer_ids : t -> int list
(** Registered peer ids, ascending — the anti-entropy comparison key. *)

val digest : t -> int64
(** Order-independent content digest over every registered [(peer, routers)]
    entry: the XOR of one 64-bit hash per entry, [0L] when empty, and the
    same value whatever registry backend holds the paths.  Maintained as
    the XOR-fold of the bucket digests (below), so each registration is
    hashed once.  Two replicas hold the same registrations iff their
    digests match (modulo 64-bit collisions) — the cheap anti-entropy
    comparison key. *)

(** {1 Report staleness}

    Each registration is stamped with the engine time the server learned of
    it, feeding the report-age distribution ({!Staleness}).  The stamps are
    a server-local observation (when {e this} replica learned the report),
    deliberately not part of {!snapshot}; an anti-entropy repair stamps
    only the entries it writes. *)

val set_clock : t -> (unit -> float) -> unit
(** Install the time source (engine milliseconds) used to stamp
    registrations.  Defaults to [fun () -> 0.0] — a standalone server
    without a simulation clock stamps everything at time zero. *)

val registration_time : t -> int -> float option
(** When this server last learned (or refreshed) the given peer's report,
    in clock units; [None] when unregistered. *)

val iter_registration_times : t -> (int -> float -> unit) -> unit
(** [f peer stamped_at] for every registered peer — the staleness feed. *)

val neighbors : t -> peer:int -> k:int -> (int * int) list
(** [(peer, inferred distance)] ascending, at most [k], never containing the
    peer itself.  Cross-tree top-up entries carry inferred distance
    [max_int].  Traced as a [query] span.
    @raise Not_found for an unregistered peer. *)

val sized_neighbors : t -> peer:int -> k:int -> request_bytes:int -> (int * int) list * int
(** {!neighbors}, and the size of the {!Wire.Neighbor_reply} carrying the
    answer, as a replica's RPC reply sends it: the server sizes it once,
    for its wire counter, and a replica answering a join hands the size
    on.  The wire counter is charged [request_bytes] for the request, not
    a {!Wire.Neighbor_request}: what of the frame that asked has not been
    counted yet (0 after {!register_prefix}, whose frame carried [k]). *)

val leave : t -> peer:int -> unit
(** Deregister (graceful or detected failure).  @raise Not_found when
    unregistered. *)

val handover :
  ?rng:Prelude.Prng.t -> t -> client:Client.t -> peer:int -> attach_router:Topology.Graph.node -> peer_info
(** Mobility: atomically deregister and re-join at a new attachment router
    (extension E3).  @raise Not_found when unregistered. *)

val trace : t -> Simkit.Trace.t
(** Protocol counters: ["join"], ["join_continue"] (first rounds answered
    {!Wire.Continue}), ["leave"], ["handover"], ["probe_packets"],
    ["query"], ["cross_tree_topup"], ["report_refresh"] (registrations
    stamped — joins, replica applies and handovers, the staleness
    refresh-rate feed), ["wire_bytes"] (bytes the join uploads
    and query exchanges would occupy on the wire, per {!Wire});
    statistics ["path_hops"] (hops the client traced) and the per-phase
    join costs in simulated
    milliseconds ["ping_round_ms"], ["traceroute_ms"], ["join_ms"].  The
    probe, hop and time figures are the client's, read from its
    {!Client.measurement} at registration. *)

val check_invariants : t -> unit
(** Every per-landmark tree is internally consistent; every registered
    peer is in exactly the tree of its landmark; the trees' member counts
    sum to {!peer_count}; the bucket digests equal a fresh recompute over
    the routers the trees hold ({!Registry_intf.S.path_of}), so a tree
    holding other routers than it was given is caught; and every peer is
    indexed once, in its own bucket.
    @raise Failure on violation. *)

(** {1 Bucket digests}

    The registrations are split into {!bucket_count} buckets by a mixed
    hash of the peer id, and each bucket keeps its own content digest: the
    XOR of the entry hashes over its [(peer, routers)] entries, maintained
    on every insert and remove; they fold to {!digest}.  Two replicas whose
    {!digest}s differ compare their bucket digests and exchange only the
    buckets that differ ({!snapshot_buckets}, {!apply_buckets}). *)

val bucket_count : int
(** The fixed number of buckets. *)

val bucket_of : int -> int
(** The bucket of a peer id, in [\[0, bucket_count)]. *)

val bucket_summary : t -> string
(** Every bucket digest, encoded: a varint bucket count, then one
    fixed-width 64-bit field per bucket — [8 * bucket_count + 2] bytes. *)

val differing_buckets : t -> string -> (int list, string) result
(** Decode another replica's {!bucket_summary} and list, ascending, the
    buckets whose digest differs from this server's.  Total: corrupt input
    or a different bucket count yields [Error]. *)

(** {1 Persistence}

    A management server is a single point of failure; restarting it must
    not force every peer to re-traceroute.  The snapshot is the registered
    state in the {!Prelude.Codec} binary format: a version byte (2), the
    landmarks, then per member, ascending by peer id, the registration as
    the server stores it: peer id, attach router, probe cost and routers,
    a varint array ending at the member's landmark.  It is the one
    persistence format: registry backends have none, and restoring
    re-inserts every path into whichever backend is given.  A partial
    snapshot, what anti-entropy exchanges, carries some buckets' entries. *)

val snapshot : t -> string
(** Serialize the registration state (not the counters, which belong to
    the process, not the data). *)

val snapshot_buckets : ?only:(int -> bool) -> t -> int list -> string
(** A partial snapshot: the registrations of the listed buckets (of those
    whose peer passes [only], default all), in {!snapshot}'s entry
    encoding, without the landmark header. *)

val apply_buckets : ?replace:int list -> t -> string -> (int, string) result
(** Apply a partial snapshot.  An entry this server already holds verbatim
    is left alone; any other is registered, replacing a differing
    registration of the same peer.  With [replace], the listed buckets end
    up holding exactly the snapshot's entries — their other registrations
    are removed — and an entry outside them is an error.  Written entries
    are stamped at the current clock (not counted as ["report_refresh"]).
    Returns the number of registrations written or removed.  Total:
    corrupt input yields [Error], and is rejected before anything is
    applied; so is an entry whose route is empty, does not end at a
    landmark, or names a router outside {!graph} (or whose attach router
    does). *)

val restore :
  ?backend:(module Registry_intf.S) ->
  ?spans:Simkit.Span.sink ->
  Traceroute.Route_oracle.t ->
  string ->
  (t, string) result
(** Rebuild a server from {!snapshot} output over the given oracle (the
    graph itself is not serialized — the map outlives server restarts):
    {!create} with the snapshot's landmarks, then apply every bucket as
    {!apply_buckets} does.  Total: corrupt input, or a snapshot of another
    version, yields [Error]. *)

(** {1 bench/stack only: forwards to {!Client}, called by nothing else} *)

type measurement = Client.measurement

val measure : ?rng:Prelude.Prng.t -> t -> attach_router:Topology.Graph.node -> measurement
(** {!Client.measure} by a client over this server's oracle and landmarks. *)

val measurement_landmark : measurement -> Topology.Graph.node
val measurement_path : measurement -> Traceroute.Path.t
val measurement_probes : measurement -> int
val measurement_duration_ms : measurement -> float
