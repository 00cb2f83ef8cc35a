(** The management server's per-landmark data structure (the paper's core
    contribution).

    Every peer registers the router path from its attachment point to one
    landmark.  Because forwarding toward a fixed destination follows a sink
    tree, the registered paths of all peers form a tree rooted at the
    landmark; the {e meeting point} of two peers is their deepest common
    router, and the inferred distance is
    [dtree(p1,p2) = dist(p1, meeting) + dist(p2, meeting)].

    Storage follows the paper's complexity sketch: each router has a
    bucket of the peers whose path crosses it, kept ordered by the peer's
    distance to that router, and a query walks the newcomer's own path,
    accessing each router bucket in O(1) and scanning it in ascending
    inferred-distance order with early cutoff.  Peers registering one
    route share its entries: a bucket holds one entry per route, ordered
    by the route's distance and lowest peer, and each route its peers in
    order, so registering a peer on a stored route is one O(log n)
    ordered insertion, and a new route one per router of its path
    ({!Path_tree_core}). *)

type t

type peer = int

val create : landmark:Topology.Graph.node -> t
val landmark : t -> Topology.Graph.node
val member_count : t -> int
val mem : t -> peer -> bool
val router_count : t -> int
(** Distinct routers currently covered by at least one registered path. *)

val insert : t -> peer:peer -> routers:Topology.Graph.node array -> unit
(** [insert t ~peer ~routers] registers a peer whose path is
    [routers.(0) .. routers.(last)] with [routers.(0)] the attachment router
    and [routers.(last)] the landmark.  Truncated paths (from a decreased
    traceroute) are accepted: distances are then positions in the truncated
    path, an approximation the E4 experiment quantifies.
    @raise Invalid_argument as {!Path_tree_core.insert_path}: on an empty
    path, one not ending at the landmark, a negative router, a peer
    outside [\[0, 2^31)], or a peer already registered. *)

val remove : t -> peer -> unit
(** @raise Not_found when the peer is not registered. *)

val path_of : t -> peer -> Topology.Graph.node array option
(** The stored routers, not a copy ({!Registry_intf.S.path_of}). *)

val member_through : t -> Topology.Graph.node -> except:peer -> peer
(** A member other than [except] whose path crosses the router, or -1:
    the member nearest to it ({!Path_tree_core.member_through}). *)

val depth : t -> peer -> int option
(** Links between the peer's attachment router and the landmark. *)

val meeting_point : t -> peer -> peer -> (Topology.Graph.node * int * int) option
(** [meeting_point t p1 p2] is [(router, d1, d2)]: the deepest common router
    of the two registered paths and each peer's distance to it.  [None] when
    either peer is unregistered.  The paths share at least the landmark, so
    two registered peers always have a meeting point. *)

val dtree : t -> peer -> peer -> int option
(** Inferred distance [d1 + d2] of {!meeting_point}. *)

val query : t -> routers:Topology.Graph.node array -> k:int -> ?exclude:(peer -> bool) -> unit -> (peer * int) list
(** [query t ~routers ~k ()] walks a (possibly unregistered) newcomer's path
    and returns at most [k] registered peers with the smallest inferred
    distance, ascending, ties broken toward the lower peer id.  [exclude]
    filters candidates (e.g. the newcomer itself). *)

val query_member : t -> peer:peer -> k:int -> (peer * int) list
(** {!query} with the peer's own registered path, excluding itself.
    @raise Not_found when unregistered. *)

val insert_many : t -> (peer * Topology.Graph.node array) array -> unit
(** Batch {!insert} from {!Registry_intf.Derive_batch}: validated up
    front (a bad entry applies nothing), then each entry inserted in array
    order, leaving exactly the tree the looped singletons would. *)

val iter_members : t -> (peer -> unit) -> unit

val check_invariants : t -> unit
(** Test hook: every registered path ends at the landmark; every path entry
    appears in exactly the right bucket with the right distance; bucket
    contents are exactly the union of registered paths.  @raise Failure on
    violation. *)

(** {1 Registry backend surface}

    The remaining values complete {!Registry_intf.S}, making the path tree
    the reference backend every alternative is compared against. *)

val backend_name : string
(** ["tree"]. *)

val stats : t -> (string * int) list
(** [("members", _); ("routers", _)]. *)

val introspect : t -> Registry_intf.introspection
(** Bucket occupancy straight off the router table: one histogram sample
    per router (value = bucket cardinality), hot routers the largest
    buckets. *)
