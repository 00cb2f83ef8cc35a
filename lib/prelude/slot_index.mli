(** A map from keys in [\[0, 2^31)] to dense slots, for keeping per-key
    state in arrays indexed by slot.

    One open-addressed [int array] of cells: a lookup is a multiplicative
    hash and a linear probe, with no bucket, cons cell or boxed binding to
    chase.  {!add} hands out the most recently freed slot, else the next
    unused one, so slots stay below {!slot_bound}, which grows only while
    the live count does.  A removal leaves no tombstone, so churn does not
    lengthen probes.  Iteration walks the cells: its order depends only on
    the sequence of operations. *)

type t

val key_limit : int
(** [2^31]: keys must lie in [\[0, key_limit)]. *)

val create : ?capacity:int -> unit -> t
(** An empty index sized to take [capacity] keys (default 8) without
    growing. *)

val length : t -> int

val slot_bound : t -> int
(** Every slot {!add} has returned is below this: the length per-slot
    arrays need. *)

val capacity : t -> int
(** Keys the index holds before it grows; {!slot_bound} never exceeds it.
    Per-slot arrays grown to it grow only as often as the index does. *)

val find : t -> int -> int
(** The key's slot, or [-1] when absent (any key out of range is). *)

val mem : t -> int -> bool

val add : t -> int -> int
(** Insert a key and return its fresh slot.
    @raise Invalid_argument when the key is out of range or already
    present; the index is then unchanged. *)

val remove : t -> int -> int
(** Remove a key and return the slot it held, now free; [-1] when absent. *)

val iter : t -> (int -> int -> unit) -> unit
(** [f key slot] per key, in cell order.  [f] must not change the index. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val heap_words : t -> int
(** Words the index occupies on the heap, headers included. *)

val check_invariants : t -> unit
(** @raise Failure on a violated structural invariant (test hook). *)
