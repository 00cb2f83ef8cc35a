(** Simulation metrics collection.

    Named counters and named streaming statistics, written by protocol code
    and read by experiment reports.  Each observe stream is a Welford
    accumulator (count, mean, stddev, CI) plus one mergeable
    {!Prelude.Sketch} that answers every quantile read, so tail latencies
    are available without retaining samples.  Purely in-memory; rendering
    is the caller's business (see {!Export} for the JSON / Prometheus
    serializations). *)

type t

type summary = {
  count : int;
  mean : float;
  stddev : float;
  ci95 : float;  (** Half-width of the 95% CI of the mean. *)
  min : float option;  (** [None] when the stream is empty. *)
  max : float option;
  p50 : float;
      (** Sketch estimate, within relative error
          {!Prelude.Sketch.default_alpha}; [nan] when the stream is
          empty. *)
  p90 : float;
  p99 : float;
}

val create : unit -> t
val incr : t -> string -> unit
val add_count : t -> string -> int -> unit
val counter : t -> string -> int
(** 0 when never written. *)

val of_counters : (string * int) list -> t
(** A fresh trace pre-loaded with the given counter values — the adapter
    for subsystems that keep plain integer counters (e.g.
    {!Transport.stats}) so the {!Export} serializers can see them. *)

val counter_ref : t -> string -> int ref
(** The live cell behind a counter, for hot paths that bump it in a loop.
    The ref stays valid across {!reset} (reset zeroes it in place). *)

val observe : ?trace_id:int -> t -> string -> float -> unit
(** Append a sample to the named statistic.  With [trace_id], also record
    the sample as the latest {!exemplar} of its sketch bucket, so the tail of
    the stream stays cross-linked to concrete traces (OpenMetrics-style).
    Trace id 0 (the noop span sink's {!Span.null_context}) is ignored. *)

type stream
(** The live cell behind an observe stream. *)

val stream_ref : t -> string -> stream
(** The named stream, created empty on first use, for hot paths that
    write it repeatedly without a name lookup ({!Metrics} caches these).
    Like a {!counter_ref}, it stays valid across {!reset}. *)

val observe_ref : ?trace_id:int -> stream -> float -> unit
(** {!observe} into a stream obtained from {!stream_ref}. *)

type counter_cell
(** A counter cell resolved at its first write: hot paths build one per
    name up front and write it without hashing the name, while a name
    never written still does not appear in {!counters}.  Once written, a
    cell holds the counter and nothing else, whenever the collector runs.
    Its resolver is where a {!bind_counter} lists it under another name. *)

type stream_cell
(** {!counter_cell} for an observe stream. *)

val counter_cell_of : (unit -> int ref) -> counter_cell
(** A cell that calls the function once, at its first write, and keeps
    the counter it returns. *)

val stream_cell_of : (unit -> stream) -> stream_cell
val counter_cell : t -> string -> counter_cell
val stream_cell : t -> string -> stream_cell

val cell_incr : counter_cell -> unit
(** {!incr} through a cell. *)

val cell_add : counter_cell -> int -> unit
(** {!add_count} through a cell. *)

val cell_observe : stream_cell -> float -> unit
(** {!observe} (untagged) through a cell. *)

val cell_count : counter_cell -> int
(** 0 before the cell's first write. *)

val bind_counter : t -> string -> int ref -> unit
(** List an existing cell under [name] too: one count, two names.  Call
    it from a cell's resolver, so an unwritten cell appears nowhere.
    @raise Invalid_argument when [name] has another cell. *)

val bind_stream : t -> string -> stream -> unit

type exemplar = {
  bucket : int;  (** {!Prelude.Sketch.bucket_index} of the sample. *)
  trace_id : int;
  value : float;
}

val exemplars : t -> string -> exemplar list
(** One exemplar per populated sketch bucket (the latest to land there),
    ascending by bucket; [[]] for unknown streams or untagged samples. *)

val top_exemplar : t -> string -> exemplar option
(** The exemplar of the highest populated bucket — the trace to open when
    the stream's tail looks wrong. *)

val stat : t -> string -> Prelude.Stats.t option
val summary : t -> string -> summary option

val quantile : t -> string -> float -> float option
(** [quantile t name q] for any [q] in [\[0, 1\]], from the stream's
    sketch whether or not it has absorbed a {!merge_into}: within relative
    error {!Prelude.Sketch.default_alpha} of the true quantile.  [None]
    for an unknown stream, [nan] before the first observation.
    @raise Invalid_argument on [q] outside [\[0, 1\]]. *)

val buckets : t -> string -> (int * float * int) list
(** The stream's occupied sketch buckets, ascending, as {!Prelude.Sketch.buckets}
    gives them; [[]] for an unknown stream. *)

val counters : t -> (string * int) list
(** Alphabetical. *)

val summaries : t -> (string * summary) list
(** Alphabetical. *)

val merge_into : ?map_name:(string -> string) -> into:t -> t -> unit
(** [merge_into ~into src] folds every counter and stream of [src] into
    [into], leaving [src] unchanged: counters add, Welford accumulators
    combine losslessly, quantile sketches merge within their shared error
    bound, and exemplars keep [src]'s latest per bucket.
    [map_name] renames each counter/stream on the way in — the hook
    {!Metrics.merge_trace} uses to file a whole trace under a label set.
    This is the fleet roll-up primitive: scrape each replica's trace into
    one fresh trace and read merged tails off it. *)

val reset : t -> unit
(** Zero every counter and stream {e in place}: handles previously obtained
    through {!counter_ref}, {!stream_ref} or {!stat} keep pointing at live
    cells. *)
