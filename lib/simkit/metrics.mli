(** Labeled (dimensional) metrics.

    A registry of metric series identified by a base name plus a label
    set — [registry_query_ns{backend="tree", replica="2"}] — in the
    Prometheus data model.  Label sets are canonicalized (sorted by key),
    so label order never splits a series.  Each labeled series is backed
    by one {!Trace} counter or stream, which gives every series the full
    Welford/histogram/sketch machinery and makes registries mergeable:
    {!merge_trace} files a whole subsystem trace under a label set, and
    {!merge_into} rolls one registry up into another — the mechanism
    behind per-replica and per-backend streams combining into one
    fleet-wide view.

    {b Cardinality bound.} Per base name at most [max_series_per_name]
    distinct label sets are stored; further label sets collapse into the
    reserved [{other="true"}] overflow series ({!overflow_labels}).  A
    runaway label value (peer ids, raw addresses) degrades into one
    aggregate series instead of growing memory without bound. *)

type t

type labels = (string * string) list
(** Label pairs.  Keys must be unique (checked); order is irrelevant. *)

val create : ?max_series_per_name:int -> unit -> t
(** [max_series_per_name] caps distinct label sets per base name
    (default 64).  @raise Invalid_argument when below 1. *)

val overflow_labels : labels
(** [{other="true"}] — the reserved label set absorbing series beyond the
    cardinality cap. *)

val canonical_key : string -> labels -> string
(** The flattened series identity: [name{k="v",…}] with labels sorted and
    values escaped, or just [name] for an empty label set.
    @raise Invalid_argument on duplicate label keys. *)

(** {1 Writing} *)

val incr : t -> string -> labels:labels -> unit
val add_count : t -> string -> labels:labels -> int -> unit
val counter_ref : t -> string -> labels:labels -> int ref
(** The cell a write would bump, for hot paths to bump directly; past the
    cap it is the overflow series' cell, counted once in {!overflow_routed}. *)

val observe : ?trace_id:int -> t -> string -> labels:labels -> float -> unit
(** Append a sample to the labeled stream ({!Trace.observe} semantics,
    exemplar tagging included). *)

val stream_ref : t -> string -> labels:labels -> Trace.stream
(** The stream an {!observe} would append to, for hot paths to write with
    {!Trace.observe_ref}; routed past the cap as {!counter_ref} is. *)

val set : t -> string -> labels:labels -> float -> unit
(** Gauge write: last value wins (occupancy, utilization shares). *)

type gauge = { mutable value : float }

val gauge_ref : t -> string -> labels:labels -> gauge
(** The gauge's cell, for hot paths to set directly; it reads [nan] until
    set, so resolve it where its first value is set. *)

val bind_counter : t -> string -> labels:labels -> int ref -> unit
(** {!Trace.bind_counter} for a series: it shows a component's cell, never
    a copy.  @raise Invalid_argument as that does, and past the name's
    cap rather than fold the cell into the overflow series. *)

val bind_stream : t -> string -> labels:labels -> Trace.stream -> unit

(** {1 Reading} *)

val counter : t -> string -> labels:labels -> int
(** 0 when the series was never written. *)

val summary : t -> string -> labels:labels -> Trace.summary option
val quantile : t -> string -> labels:labels -> float -> float option
(** Sketch-backed: any [q] in [\[0, 1\]], relative error at most
    {!Prelude.Sketch.default_alpha}. *)

val gauge : t -> string -> labels:labels -> float option

val series : t -> (string * labels * string) list
(** Every registered series as [(name, labels, canonical key)], sorted by
    canonical key. *)

val series_count : t -> string -> int
(** Distinct label sets stored under the base name (the overflow series
    counts as one). *)

val overflow_routed : t -> int
(** Writes that were rerouted to the overflow series because their base
    name was at the cardinality cap. *)

val trace : t -> Trace.t
(** The backing flat trace, keyed by canonical series keys — what the
    {!Export} serializers iterate. *)

val gauge_bindings : t -> (string * float) list
(** Every gauge as [(canonical key, value)], sorted. *)

(** {1 Merging} *)

val merge_trace : t -> labels:labels -> Trace.t -> unit
(** File every counter and stream of a flat trace under [labels]:
    counters add, streams merge within the sketch error bound (see
    {!Trace.merge_into}).  The per-replica scrape primitive —
    [merge_trace m ~labels:["replica", "2"] (Server.trace s)]. *)

val merge_into : into:t -> t -> unit
(** Roll one registry up into another, re-resolving every series identity
    against [into]'s cardinality caps ([src] is unchanged).  Gauges take
    [src]'s value on collision. *)
