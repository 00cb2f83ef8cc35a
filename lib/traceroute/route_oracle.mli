(** Deterministic forwarding-path oracle over a router graph.

    IP forwarding is destination-based: all routes toward one destination
    form a sink tree.  The oracle models exactly that — for each destination
    it fixes one deterministic shortest-path tree (lowest-id tie-break for
    hop routing, or latency-optimal under a weight function) and reads every
    route out of it.  Per-destination trees are computed lazily and cached,
    so probing thousands of peers toward a handful of landmarks costs one
    BFS per landmark. *)

type t

val create : ?max_cached_trees:int -> Topology.Graph.t -> t
(** Hop-count routing (every link cost 1).  [max_cached_trees] bounds the
    per-destination sink-tree cache with LRU eviction (default: unbounded);
    evicted trees are recomputed on demand, so results never change — only
    memory and recompute cost. *)

val create_weighted : Topology.Graph.t -> weight:(int -> int -> float) -> t
(** Latency-based routing; the weight function must be symmetric and
    non-negative. *)

val create_inflated : Topology.Graph.t -> inflation:float -> seed:int -> t
(** Policy-routing model: real forwarding is not shortest-path — BGP
    policies inflate paths.  Per destination, a deterministic 25% of links
    carry a policy penalty of [inflation] extra cost, so routes detour
    around them whenever the detour is cheaper.  Routes stay
    destination-consistent (still sink trees) but deviate from hop-shortest
    more as [inflation] grows; [inflation = 0] reduces to hop routing.
    @raise Invalid_argument on negative inflation. *)

val graph : t -> Topology.Graph.t

val route : t -> src:Topology.Graph.node -> dst:Topology.Graph.node -> Topology.Graph.node list
(** The router sequence from [src] to [dst], both inclusive; [[]] when
    unreachable; [[src]] when [src = dst]. *)

val route_array : t -> src:Topology.Graph.node -> dst:Topology.Graph.node -> Topology.Graph.node array
(** {!route} as an array, built with no intermediate list: [[||]] when
    unreachable, [[|src|]] when [src = dst]. *)

val route_length : t -> src:Topology.Graph.node -> dst:Topology.Graph.node -> int
(** Links traversed by {!route}; [max_int] when unreachable.  Note this is
    the length of the deterministic forwarding route, which for weighted
    routing can exceed the hop-count shortest path.  Each sink tree records
    every node's depth when it is built, so once [dst]'s tree exists this
    is one array read: constant time, no allocation. *)

val next_hop : t -> dst:Topology.Graph.node -> Topology.Graph.node -> Topology.Graph.node option
(** [next_hop t ~dst v] is the router after [v] on [v]'s route to [dst];
    [None] at the destination itself or when unreachable. *)

val cached_destinations : t -> int
(** Number of destination trees currently materialized (for memory tests). *)
