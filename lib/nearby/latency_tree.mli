(** Latency-weighted landmark path tree (DESIGN.md ablation 1): the
    structure of {!Path_tree} with cumulative link latencies as costs, so
    [dtree(p1, p2) = latency(p1 -> meeting) + latency(meeting -> p2)].
    The {!Metric_ablation} experiment (bench target [metric]) measures
    what this buys over the paper's hop counts.

    The API speaks milliseconds; {!Path_tree_core} stores integer
    microseconds, each cumulative cost rounded to the nearest one: a 1 µs
    grid.  Costs on the grid ([Hop_count]'s 1.0 ms links) come back
    exactly; off it ([Core_weighted]'s exponential latencies) they come
    back rounded, and candidates less than 1 µs apart may tie, breaking to
    the lower peer id.  A cost must lie in [\[0, 2^30)] µs. *)

type t

type peer = int

val create : landmark:Topology.Graph.node -> t
val member_count : t -> int
val mem : t -> peer -> bool
val router_count : t -> int

val insert : t -> peer:peer -> hops:(Topology.Graph.node * float) array -> unit
(** [hops.(i)] pairs the i-th router of the peer's path with its
    cumulative latency (ms) from the peer.
    @raise Invalid_argument as {!Path_tree_core.insert_path}, and on a
    latency outside the range above. *)

val remove : t -> peer -> unit

val meeting_point : t -> peer -> peer -> (Topology.Graph.node * float * float) option
val dtree : t -> peer -> peer -> float option

val query :
  t ->
  hops:(Topology.Graph.node * float) array ->
  k:int ->
  ?exclude:(peer -> bool) ->
  unit ->
  (peer * float) list
(** As {!Path_tree_core.query_path}, in milliseconds. *)

val query_member : t -> peer:peer -> k:int -> (peer * float) list

val check_invariants : t -> unit

val hops_of_route :
  latency:Topology.Latency.t -> Topology.Graph.node list -> (Topology.Graph.node * float) array
(** [hops_of_route ~latency route] pairs each router of a recorded route
    with its cumulative latency from the route head.
    @raise Not_found if consecutive routers are not linked in the latency
    table's graph. *)
