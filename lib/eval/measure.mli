(** Shared, BFS-amortized scoring of neighbor sets.

    Every experiment compares several selectors on the same peer population;
    scoring all of them in one pass costs a single BFS per peer instead of
    one per (peer, selector). *)

type scored = {
  name : string;
  total_d : int;  (** Sum over peers of the hop-distance sum to the set. *)
  ratio : float;  (** [total_d / total_d_closest]. *)
  hit_ratio : float;  (** Mean per-peer overlap with the optimal set. *)
}

type outcome = {
  total_d_closest : int;
  optimal_sets : int array array;
  scored : scored list;  (** Input order. *)
}

val score :
  Nearby.Selector.context -> k:int -> named_sets:(string * int array array) list -> outcome
(** [score ctx ~k ~named_sets] computes the brute-force optimal sets
    ([Dclosest]) and scores every named selector against them.
    Unreachable chosen neighbors cost [max_int / 4] hops each.
    @raise Invalid_argument when a set array's length differs from the peer
    population. *)

(** {1 Load split} *)

val landmark_members : Nearby.Server.t -> int list
(** How many of the server's peers each landmark's tree holds, in
    {!Nearby.Server.landmarks} order: the load of the super-peer that
    would serve the region.  They sum to {!Nearby.Server.peer_count}. *)

val max_over_mean : int list -> float
(** The largest count over the mean count: 1.0 is a perfectly even split.
    1.0 when the counts sum to zero, so it is never below 1. *)
