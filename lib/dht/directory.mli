(** The management server, decentralized over a Chord ring.

    Bucket ownership is distributed: the bucket of router [r] (the ordered
    set of peers whose recorded path crosses [r]) lives on the DHT node
    owning key [r].  A join walks the recorded path and inserts one bucket
    entry per router — each insert is one DHT lookup; a query walks the
    newcomer's path outward exactly like {!Nearby.Path_tree.query},
    fetching each router's bucket through the ring.

    Answers are identical to the centralized server restricted to the same
    landmark tree (same metric, same tie-breaks — tested); what changes is
    the cost model: O(log N) overlay hops per bucket access instead of a
    central round trip, and storage/query load spread over the ring.  The
    walk's early cutoff also prunes the number of bucket fetches, which the
    stats expose. *)

type t

val create : ?virtual_nodes:int -> landmark:Topology.Graph.node -> int array -> t
(** [create ~landmark dht_nodes] builds the ring over the given storage
    node ids; [virtual_nodes] ring positions per node (default 1) smooth
    the segment-size imbalance.  @raise Invalid_argument on an empty or
    duplicate array. *)

val landmark : t -> Topology.Graph.node
val member_count : t -> int
(** Registered peers. *)

val mem : t -> int -> bool
val path_of : t -> int -> Topology.Graph.node array option
(** The stored routers, not a copy ({!Nearby.Registry_intf.S.path_of}). *)

val iter_members : t -> (int -> unit) -> unit

val dtree : t -> int -> int -> int option
(** Meeting-point distance from the registered paths, as
    {!Nearby.Path_tree.dtree}. *)

val insert : t -> peer:int -> routers:Topology.Graph.node array -> unit
(** Same contract as {!Nearby.Path_tree.insert}; counts one DHT lookup per
    path router. *)

val remove : t -> peer:int -> unit
(** @raise Not_found when unregistered. *)

val query :
  t -> routers:Topology.Graph.node array -> k:int -> ?exclude:(int -> bool) -> unit -> (int * int) list
(** Same semantics as {!Nearby.Path_tree.query}. *)

val query_member : t -> peer:int -> k:int -> (int * int) list
(** @raise Not_found when unregistered. *)

type stats = {
  lookups : int;  (** DHT lookups issued (bucket reads + writes). *)
  overlay_hops : int;  (** Total Chord forwarding hops across them. *)
  buckets_per_node : (int * int) list;
      (** (dht node, buckets stored), ring order — the storage balance. *)
}

val stats : t -> stats
val reset_counters : t -> unit

val iter_buckets : t -> (Topology.Graph.node -> int -> unit) -> unit
(** [f router size] per stored router bucket across every node store,
    unspecified order.  Reads the stores directly — no lookup traffic is
    counted.  The feed for registry introspection. *)

val approx_bytes : t -> int
(** Rough payload size (paths + bucket entries) in bytes, excluding ring
    metadata; an estimate for cross-backend comparison. *)

val check_invariants : t -> unit
(** Every bucket entry sits on the ring node owning its router key and is
    justified by a registered path, and vice versa.  Reads ownership
    directly (no lookup traffic is counted).  @raise Failure on
    violation. *)

(** {1 Membership dynamics}

    Consistent hashing's selling point: when a storage node joins or
    leaves, only the buckets whose ring segment changed owner move.  The
    ring is rebuilt at its stabilized state and affected buckets are
    migrated; answers are unaffected (same data, new homes). *)

val node_count : t -> int
val add_node : t -> node:int -> int
(** Add a storage node; returns the number of buckets migrated to it.
    @raise Invalid_argument if the node is already a member. *)

val remove_node : t -> node:int -> int
(** Retire a storage node, handing its buckets to their new owners;
    returns the number migrated.  @raise Invalid_argument when the node is
    not a member or is the last one. *)

val migrations : t -> int
(** Total buckets moved by membership changes so far. *)
