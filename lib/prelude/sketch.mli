(** Mergeable quantile sketch with a bounded relative error.

    A log-bucketed (DDSketch-style) sketch: values land in geometric
    buckets sized so any reported quantile is within a relative error of
    [alpha] of the true order statistic — [|estimate - exact| <= alpha *
    exact] — regardless of how many samples were added.  Two sketches
    built with the same [alpha] merge exactly (bucket counts add), so
    per-replica and per-backend latency streams roll up into fleet-wide
    tails that carry the {e same} error bound as each input.

    This is the only quantile estimator in the tree: every
    {!Simkit.Trace} stream and every {!Simkit.Timeseries} window answers
    its quantile reads from one sketch, live or merged.  Memory grows with
    the spread of the values (one int per bucket between the smallest and
    the largest), not with the number of samples. *)

type t

val default_alpha : float
(** 0.01 — a 1% relative-error bound, the default for {!create} and the
    bound documented for every trace and window quantile. *)

val create : ?alpha:float -> unit -> t
(** [alpha] is the relative-error bound; defaults to {!default_alpha}.
    @raise Invalid_argument when [alpha] is outside (0, 1). *)

val add : t -> float -> unit
(** Record one value.  NaN, negatives and values below 1e-9 share an exact
    zero bucket (mirroring {!Histogram.log2_bucket}'s treatment). *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0, 1\]]: an estimate within relative
    error [alpha t] of the true q-quantile, clamped to the observed
    min/max.  NaN on an empty sketch.
    @raise Invalid_argument on [q] outside [\[0, 1\]]. *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s counts into [into]; [src] is unchanged.  The merged
    sketch summarises the concatenated streams with the same error bound.
    @raise Invalid_argument when the two sketches' [alpha] differ. *)

val clear : t -> unit
(** Drop all counts in place (handles stay valid). *)

val alpha : t -> float
(** The relative-error bound this sketch was built with. *)

val count : t -> int
val is_empty : t -> bool

val bucket_index : t -> float -> int
(** The index of the bucket {!add} files a value under: [i] for
    (gamma^(i-1), gamma^i], and one below the lowest such index for the
    zero bucket, so indexes order like the values they hold. *)

val buckets : t -> (int * float * int) list
(** The occupied buckets in ascending order, as [(index, upper edge,
    count)] — the zero bucket first, with upper edge 1e-9.  Counts sum to
    {!count}; exporters render histograms from this. *)
