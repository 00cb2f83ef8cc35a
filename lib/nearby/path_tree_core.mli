(** Cost-generic core of the landmark path tree.

    {!Path_tree} (hop counts, the paper's metric) and {!Latency_tree}
    (milliseconds, ablation 1 in DESIGN.md) are both instances of this
    functor.  A registered path is a sequence of [(router, cost)] pairs
    where [cost] is the cumulative distance from the peer to that router;
    the structure of meeting points depends only on the router sequence,
    the metric only on the costs. *)

module type COST = sig
  type t

  val zero : t
  val add : t -> t -> t

  val compare : t -> t -> int
  (** A total order.  Bind the monomorphic compare of the type
      ([Int.compare], [Float.compare]): the bucket searches call it on every
      probe, and the polymorphic [compare] would go through the runtime's
      generic [caml_compare] each time. *)

  val blit : t array -> int -> t array -> int -> int -> unit
  (** [Array.blit] on cost arrays: moves the chunk entries on every insert
      and remove.  Immediate costs pass {!int_blit}, which skips the write
      barrier; float arrays are flat, so [Array.blit] is already a
      [memmove]; boxed costs must pass [Array.blit]. *)
end

val int_blit : int array -> int -> int array -> int -> int -> unit
(** [Array.blit] for int arrays, without the per-element write barrier
    [Array.blit] pays when the destination is in the major heap.
    @raise Invalid_argument on an out-of-bounds range. *)

module Make (Cost : COST) : sig
  type t

  type peer = int

  val create : landmark:Topology.Graph.node -> t
  val landmark : t -> Topology.Graph.node
  val member_count : t -> int
  val mem : t -> peer -> bool
  val router_count : t -> int
  (** Routers whose bucket holds at least one entry. *)

  val insert : t -> peer:peer -> hops:(Topology.Graph.node * Cost.t) array -> unit
  (** [hops.(i)] is the i-th router of the peer's recorded path paired with
      the cost from the peer to it; the last entry must name the landmark.
      Costs must be non-decreasing from [hops.(0)] (normally [(attach,
      zero)]).
      @raise Invalid_argument on an empty path, a path not ending at the
      landmark, a negative router, decreasing costs, or a duplicate peer. *)

  val insert_path :
    t -> peer:peer -> routers:Topology.Graph.node array -> costs:Cost.t array -> unit
  (** {!insert} with the path as parallel arrays: [costs.(i)] is the cost
      to [routers.(i)].  Only the first [Array.length routers] costs are
      read, so one long array can serve many paths.  [routers] is copied;
      [costs] is kept by reference and must not be mutated afterwards.
      @raise Invalid_argument as {!insert}, and when [costs] is shorter
      than [routers]. *)

  val remove : t -> peer -> unit
  (** @raise Not_found when unregistered. *)

  val routers_of : t -> peer -> Topology.Graph.node array option
  (** The registered router sequence: the stored array, not a copy, which
      the caller must not modify. *)

  val meeting_point : t -> peer -> peer -> (Topology.Graph.node * Cost.t * Cost.t) option
  (** Deepest common router of the two registered paths and each peer's cost
      to it; [None] when either peer is unregistered or the paths share no
      router. *)

  val dtree : t -> peer -> peer -> Cost.t option

  val query :
    t ->
    hops:(Topology.Graph.node * Cost.t) array ->
    k:int ->
    ?exclude:(peer -> bool) ->
    unit ->
    (peer * Cost.t) list
  (** At most [k] registered peers with the smallest inferred distance to
      the query path, ascending, ties toward the lower peer id. *)

  val query_path :
    t ->
    routers:Topology.Graph.node array ->
    costs:Cost.t array ->
    k:int ->
    ?exclude:(peer -> bool) ->
    unit ->
    (peer * Cost.t) list
  (** {!query} with the path as parallel arrays, read as {!insert_path}
      reads them. *)

  val query_member : t -> peer:peer -> k:int -> (peer * Cost.t) list
  (** {!query_path} along the member's stored path, excluding itself.
      @raise Not_found when unregistered. *)

  val iter_members : t -> (peer -> unit) -> unit

  val iter_buckets : t -> (Topology.Graph.node -> int -> unit) -> unit
  (** [f router size] per non-empty router bucket, unspecified order — the
      feed for registry introspection (occupancy histograms, hot routers). *)

  val approx_bytes : t -> int
  (** Rough payload size (paths, the router index and buckets) in bytes,
      not counting the callers' cost arrays; an estimate for cross-backend
      comparison, not an exact heap measurement. *)

  val check_invariants : t -> unit
  (** @raise Failure on a violated structural invariant (test hook). *)
end
