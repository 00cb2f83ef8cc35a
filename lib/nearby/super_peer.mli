(** Super-peer delegation (paper §3: "we are investigating the opportunity
    to use some super-peers" — extension E2).

    Instead of one central management server holding every path tree, each
    landmark's region is delegated to a {e super-peer}: a well-provisioned
    peer that stores only the path tree of its landmark and answers the
    queries of the newcomers whose closest landmark it serves.  A thin
    directory keeps the peer -> region map.  Discovery answers are
    identical to the centralized server's for same-region queries (it is
    the same data structure), so the experiment's interest is the {e load
    split} across super-peers and the lost cross-tree top-up. *)

type t

type region_load = {
  landmark : Topology.Graph.node;
  super_router : Topology.Graph.node;
  members : int;
  joins_handled : int;
  queries_handled : int;
}

val create :
  ?truncate:Traceroute.Truncate.strategy ->
  ?latency:Topology.Latency.t ->
  Traceroute.Route_oracle.t ->
  landmarks:Topology.Graph.node array ->
  super_routers:Topology.Graph.node array ->
  t
(** One super-peer per landmark, in array order.
    @raise Invalid_argument when the two arrays differ in length or are
    empty. *)

val join : ?rng:Prelude.Prng.t -> t -> peer:int -> attach_router:Topology.Graph.node -> Topology.Graph.node
(** Round 1 chooses the closest landmark; the join is then handled entirely
    by that region's super-peer.  Returns the landmark chosen.
    @raise Invalid_argument on a duplicate peer id. *)

val neighbors : t -> peer:int -> k:int -> (int * int) list
(** Answered by the peer's regional super-peer only (no cross-region
    top-up).  @raise Not_found for an unknown peer. *)

val leave : t -> peer:int -> unit
val peer_count : t -> int
val loads : t -> region_load list
(** Per-region member counts and handled-request counters, landmark order. *)

val load_imbalance : t -> float
(** Max region members / mean region members; 1.0 = perfectly balanced.
    0 when empty. *)
