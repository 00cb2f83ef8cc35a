(** Mutable binary-heap priority queue with [float] priorities.

    Used inside Dijkstra.  Lower priority values pop first.  The heap
    stores arbitrary payloads and allows duplicate priorities; ties pop in
    unspecified order, so callers that need determinism must encode the
    tie-break into the priority or payload.  Popped and cleared values are
    not retained by the queue. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty queue.  [capacity] pre-sizes the backing array. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> 'a -> unit
(** [push q ~priority v] inserts [v]; O(log n). *)

val pop : 'a t -> (float * 'a) option
(** [pop q] removes and returns the minimum-priority entry; O(log n). *)

val pop_exn : 'a t -> float * 'a
(** @raise Invalid_argument on an empty queue. *)

val peek : 'a t -> (float * 'a) option
(** [peek q] is the minimum entry without removing it; O(1). *)

val clear : 'a t -> unit

val iter_unordered : 'a t -> (float -> 'a -> unit) -> unit
(** Visit every queued entry in arbitrary (heap) order. *)
