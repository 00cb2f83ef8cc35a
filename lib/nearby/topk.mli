(** Bounded best-k selection over packed [(cost, peer)] keys, shared by
    every registry backend.

    A key is one int, [cost lsl 31 lor peer].  For a peer in
    [\[0, peer_limit)] and a cost in [\[0, 2 * cost_limit)], int order on
    keys is the [(cost, peer)] lexicographic order: equal-cost ties break
    to the lower peer id.  Callers check the ranges where peers and costs
    enter, so two costs below [cost_limit] may be summed and packed. *)

val peer_limit : int
val cost_limit : int
val pack : cost:int -> peer:int -> int
val peer_of : int -> int
val cost_of : int -> int

type t

val shared : k:int -> t
(** The calling domain's selector, emptied, keeping the [k] smallest keys
    offered from now on: a query takes it instead of allocating one, and
    must {!drain} it before the next query in the domain starts.
    @raise Invalid_argument when [k < 0]. *)

val excluding : int -> (int -> bool) option
(** [excluding peer] is [Some p], where [p] is true of [peer] alone: the calling domain's one
    predicate, over a cell this call sets, so naming the asker a query
    leaves out allocates nothing.  Valid until the next [excluding] in the
    domain. *)

val is_full : t -> bool

val worst_exn : t -> int
(** The [k]-th best key.  @raise Invalid_argument unless {!is_full} and
    [k > 0]. *)

val offer : t -> int -> unit
(** O(log k).  Once full, only a key strictly smaller than the worst held
    displaces it. *)

val offer_ascending : t -> base:int -> int array -> len:int -> exclude:(int -> bool) -> bool
(** Offers [base + keys.(i)] for [i = 0 .. len - 1] of an ascending
    [keys], skipping a peer [exclude] names or [t] already holds, and
    stops at the first that cannot enter: nothing later could.  [false]
    when it stopped there, [true] when it offered the whole run. *)

val drain : t -> (int * int) list
(** The held keys as [(peer, cost)] pairs, ascending.  Empties [t]. *)
