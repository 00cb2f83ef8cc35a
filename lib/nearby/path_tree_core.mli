(** Core of the landmark path tree, over integer costs.

    {!Path_tree} (hop counts, the paper's metric) and {!Latency_tree}
    (link latency in integer microseconds, ablation 1 in DESIGN.md) both
    store their paths here.  A registered path is a sequence of
    [(router, cost)] pairs where [cost] is the cumulative distance from
    the peer to that router; the structure of meeting points depends only
    on the router sequence, the metric only on the costs.

    A bucket entry is one packed int ({!Topk.pack}), so peer ids must lie
    in [\[0, 2^31)] and every cost, inserted or queried, in [\[0, 2^30)]
    ({!Topk.peer_limit}, {!Topk.cost_limit}): a walk cost plus an entry
    cost then still packs.  Anything outside raises [Invalid_argument]
    before any write. *)

type t

type peer = int

val create : landmark:Topology.Graph.node -> t
val landmark : t -> Topology.Graph.node
val member_count : t -> int
val mem : t -> peer -> bool
val router_count : t -> int
(** Routers whose bucket holds at least one entry. *)

val insert_path :
  t -> peer:peer -> routers:Topology.Graph.node array -> costs:int array -> unit
(** Register a path: [routers.(i)] is the i-th router of the peer's
    recorded path and [costs.(i)] the cost from the peer to it; the last
    router must be the landmark and the costs non-decreasing.  Only the
    first [Array.length routers] costs are read, so one long array can
    serve many paths.  Each distinct route is stored once, with its
    members in one sorted run: when a stored route entering [routers.(0)]
    at [costs.(0)] has the same routers and the same first costs, the new
    member joins it, and router buckets change only when it becomes the
    route's lowest member; otherwise [routers] is copied into a new
    route, which gets one entry in the bucket of each router on it.
    [costs] is kept by reference and must not be mutated afterwards.
    @raise Invalid_argument on an empty path, a path not ending at the
    landmark, fewer costs than routers, a negative router, a peer or cost
    out of range, decreasing costs, or a duplicate peer; the tree is then
    unchanged. *)

val remove : t -> peer -> unit
(** @raise Not_found when unregistered. *)

val routers_of : t -> peer -> Topology.Graph.node array option
(** The registered router sequence: the stored array, not a copy, which
    other members with the same route may share; the caller must not
    modify it. *)

val member_through : t -> Topology.Graph.node -> except:peer -> peer
(** A member other than [except] whose path crosses [router], or -1: the
    member nearest to it, ties to the lower peer id.  That is the lowest
    member of the route heading the router's bucket, or, when it is
    [except], the smaller of that route's second member and the next
    entry's; a read of one or two entries, not a scan. *)

val meeting_point : t -> peer -> peer -> (Topology.Graph.node * int * int) option
(** Deepest common router of the two registered paths and each peer's cost
    to it; [None] when either peer is unregistered or the paths share no
    router. *)

val dtree : t -> peer -> peer -> int option

val query_path :
  t ->
  routers:Topology.Graph.node array ->
  costs:int array ->
  k:int ->
  ?exclude:(peer -> bool) ->
  unit ->
  (peer * int) list
(** At most [k] registered peers with the smallest inferred distance to
    the query path, read as {!insert_path} reads a path; ascending, ties
    toward the lower peer id.
    @raise Invalid_argument on fewer costs than routers or a cost out of
    range. *)

val query_member : t -> peer:peer -> k:int -> (peer * int) list
(** {!query_path} along the member's stored path, excluding itself.
    Allocates the answer alone: a pair and a cons per neighbor.
    @raise Not_found when unregistered. *)

val iter_members : t -> (peer -> unit) -> unit
(** In the peer index's cell order ({!Prelude.Slot_index.iter}): fixed by
    the sequence of operations, but not sorted. *)

val iter_buckets : t -> (Topology.Graph.node -> int -> unit) -> unit
(** [f router size] per non-empty router bucket, [size] the members of
    the routes crossing it (a route counted once per entry), unspecified
    order — the feed for registry introspection (occupancy histograms,
    hot routers). *)

val approx_bytes : t -> int
(** Rough payload size (paths, each shared route counted once, the router
    index and buckets) in bytes, not counting the callers' cost arrays; an
    estimate for cross-backend comparison, not an exact heap
    measurement. *)

type fill = {
  entries : int;
  chunks : int;
  slots : int;
  stored_routes : int;
  member_chunks : int;
  member_slots : int;
}

val fill : t -> fill
(** Router-bucket entries (one per route and router on it, however many
    members the route has), the chunks holding them and the key slots
    those chunks allocate, summed over every router; then the distinct
    stored routes and the chunks and key slots of their member runs,
    which hold one key per member.  Entries over slots is how full the
    placement keeps its chunks. *)

val check_invariants : t -> unit
(** @raise Failure on a violated structural invariant (test hook). *)
