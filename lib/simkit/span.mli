(** Structured span events over a simulated clock, with causal trace
    contexts.

    Protocol code emits named, timestamped, attributed events ("the join of
    peer 17 spent 12 probes; its traceroute covered 9 hops") into a sink.
    The buffered sink reads the one clock its owner installs
    ({!set_clock}); the noop sink makes every operation a constant —
    instrumentation sites guard on {!enabled} and pay nothing when tracing
    is off.

    Every span can carry a {!context} ([trace_id]/[span_id]/
    [parent_span_id]) linking it into one causal tree per request: the
    protocol opens a root span per join, the RPC layer one per attempt, the
    server and cluster one per unit of work, the registry middleware one
    per store operation.  {!Trace_analysis} reconstructs the trees.

    Export is JSONL in the Chrome trace-event format (one complete ["X"]
    event per line, timestamps in microseconds), loadable in
    about://tracing / Perfetto and greppable with standard tools; the
    causal ids ride along as extra top-level fields that trace viewers
    ignore. *)

type value = Int of int | Float of float | Str of string | Bool of bool

val value_json : value -> string
(** One attribute value as a JSON literal (shared with {!Flight_recorder}). *)

type context = {
  trace_id : int;  (** One id per request tree; roots use their span id. *)
  span_id : int;
  parent_span_id : int option;  (** [None] on root spans. *)
}

val null_context : context
(** All-zero context handed out by the noop sink; emitting with it is a
    no-op anyway, so call sites thread contexts unconditionally. *)

type event = {
  name : string;
  ts : float;  (** Start, sink-clock milliseconds. *)
  dur : float;  (** Duration, milliseconds. *)
  tid : int;  (** Per-track id; the server uses the peer id. *)
  ctx : context option;  (** Causal identity; [None] on legacy emits. *)
  args : (string * value) list;
}

type sink

val noop : sink
(** Discards everything; {!enabled} is false, {!now} is 0. *)

val buffer : ?pid:int -> unit -> sink
(** An in-memory buffering sink.  [pid] tags every exported event (one pid
    per run when several runs share a file; default 1). *)

val enabled : sink -> bool
val now : sink -> float
(** The sink clock (ms); 0 on the noop sink. *)

val set_clock : sink -> (unit -> float) -> unit
(** The clock every span is stamped with — the engine's, installed by
    whoever owns it.  Default: constant 0. *)

val context : sink -> ?parent:context -> unit -> context
(** A fresh context: child of [parent] (same trace) when given, root of a
    new trace otherwise.  {!null_context} on the noop sink. *)

val current : sink -> context option
(** Innermost ambient context installed by {!with_context} / {!with_span};
    [None] outside any scope and on the noop sink. *)

val with_context : sink -> context -> (unit -> 'a) -> 'a
(** Run [f] with [ctx] ambient, so nested instrumentation (e.g. the
    registry timing middleware) can parent its spans under the caller
    without signature changes.  Restores the previous scope on all exit
    paths. *)

val emit :
  sink -> name:string -> ts:float -> ?dur:float -> ?tid:int -> ?ctx:context ->
  (string * value) list -> unit
(** Record one complete event.  Constant-time no-op on the noop sink. *)

(** {1 Open-span handles}

    For spans whose duration is only known at completion time — an RPC
    attempt, a join waiting for its reply.  [start_span] captures the start
    timestamp and allocates the context; [finish] emits the complete event. *)

type span

val start_span :
  sink -> name:string -> ?parent:context -> ?tid:int -> (string * value) list -> span

val none : span
(** What {!start_span} returns on the noop sink, allocating nothing: a
    finished span with {!null_context}. *)

val context_of : span -> context
(** The span's own context — pass it as [?parent] to causally-dependent
    work. *)

val add_arg : span -> string -> value -> unit
(** Attach an attribute discovered mid-flight (e.g. the attempt outcome). *)

val finish : ?args:(string * value) list -> span -> unit
(** Emit the complete event, [dur = now - start] (clamped at 0).
    Idempotent: only the first call emits — a reply and a stale timeout may
    both try to close the same attempt span. *)

val with_span :
  sink -> name:string -> ?parent:context -> ?tid:int -> (string * value) list ->
  (context -> 'a) -> 'a
(** Scoped span: runs [f] with the span's context ambient ({!current}),
    and finishes on {e all} exit paths — an exception closes the span with
    an ["error"] attribute and re-raises.  This is the leak-proof form; prefer it over manual
    [start_span]/[finish] wherever the work is lexically scoped. *)

val events : sink -> event list
(** Emission order. *)

val event_count : sink -> int

val to_jsonl : sink -> string
(** One Chrome trace-event JSON object per line ("" for noop). *)

val write_jsonl : sink list -> string -> unit
(** Concatenate the sinks' JSONL into a file (one line per event). *)
