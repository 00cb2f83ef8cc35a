(** Strawman management server without the paper's data structure
    (DESIGN.md ablation 3).

    Stores each peer's recorded path as-is and answers a query by computing
    the meeting-point distance against {e every} registered peer — O(1)
    insertion but O(n · path length) per query.  Answers are identical to
    {!Path_tree} (same metric, same tie-break); only the asymptotics differ,
    which is exactly what the complexity benchmark demonstrates. *)

type t

val create : landmark:Topology.Graph.node -> t
val landmark : t -> Topology.Graph.node
val member_count : t -> int
val mem : t -> int -> bool
val path_of : t -> int -> Topology.Graph.node array option
(** The stored routers, not a copy ({!Registry_intf.S.path_of}). *)

val iter_members : t -> (int -> unit) -> unit

val member_through : t -> Topology.Graph.node -> except:int -> int
(** Always -1: without a router index, finding a member through a router
    is a scan of every path, so replication sends full reports. *)

val insert : t -> peer:int -> routers:Topology.Graph.node array -> unit
(** Same contract as {!Path_tree.insert}. *)

val remove : t -> int -> unit
(** @raise Not_found when unregistered. *)

val dtree : t -> int -> int -> int option

val query : t -> routers:Topology.Graph.node array -> k:int -> ?exclude:(int -> bool) -> unit -> (int * int) list
(** Same semantics as {!Path_tree.query}, by exhaustive scan. *)

val query_member : t -> peer:int -> k:int -> (int * int) list
(** @raise Not_found when unregistered. *)

val insert_many : t -> (int * Topology.Graph.node array) array -> unit
(** Batch {!insert} derived from the singletons
    ({!Registry_intf.Derive_batch}). *)

(** {1 Registry backend surface} — completes {!Registry_intf.S}. *)

val backend_name : string
(** ["naive"]. *)

val stats : t -> (string * int) list

val introspect : t -> Registry_intf.introspection
(** Derived by scanning the stored paths (no per-router index exists):
    occupancy counts how many paths cross each router. *)

val check_invariants : t -> unit
