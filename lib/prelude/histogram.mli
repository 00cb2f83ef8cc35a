(** Integer-valued histograms and empirical distributions.

    Used for degree distributions and hop-count distributions.  Counts are
    indexed by non-negative integer value. *)

type t

val create : unit -> t
val add : t -> int -> unit
(** Record one observation.  @raise Invalid_argument on a negative value. *)

val add_many : t -> int -> int -> unit
(** [add_many h v k] records [k] observations of value [v]. *)

val log2_bucket : float -> int
(** The shared power-of-two bucketing: 0 for NaN and values <= 1, otherwise
    the bucket [b > 0] covering [(2^(b-1), 2^b]]. *)

val add_log2 : t -> float -> unit
(** [add_log2 h v] records [v] into its {!log2_bucket} — the one latency
    bucketing used by {!Simkit.Trace} streams and anything merging with
    them. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] adds every count of [src] into [into] (e.g. to
    combine per-landmark or per-replica histograms into one view); [src] is
    unchanged. *)

val clear : t -> unit
(** Drop every count in place (capacity is retained). *)

val count : t -> int -> int
(** Occurrences of a value (0 if never seen). *)

val total : t -> int
val max_observed : t -> int
(** Largest value seen; -1 when empty. *)

val mean : t -> float
val fraction_at : t -> int -> float
(** [fraction_at h v] is [count h v / total h]; 0 on an empty histogram. *)

val ccdf : t -> (int * float) list
(** Complementary CDF: pairs [(v, P(X >= v))] for every observed value [v], in
    increasing value order.  Standard tool for checking heavy tails on log-log
    axes. *)

val to_assoc : t -> (int * int) list
(** [(value, count)] pairs in increasing value order, zero counts omitted. *)
