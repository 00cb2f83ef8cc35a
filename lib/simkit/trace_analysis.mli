(** Offline critical-path analysis of span JSONL files.

    Reads the Chrome trace-event lines {!Span} writes, reconstructs one
    causal tree per [trace_id] from the [span_id]/[parent_span_id] extras,
    and answers "where does the time of a join go" — per trace as a
    critical path, in aggregate as per-span-kind shares, and for the tail
    (traces at or above the p99 root duration) separately.  Backs the
    [nearby_sim trace] subcommand. *)

type span = {
  name : string;
  ts : float;  (** Start, ms (the file stores µs). *)
  dur : float;  (** ms. *)
  pid : int;
  tid : int;
  trace_id : int;
  span_id : int;
  parent_span_id : int option;
}

val load : string -> span list * int
(** Parse a JSONL file; [(spans, untraced)] where [untraced] counts events
    without causal ids (legacy emits — they cannot join a tree).
    Unparseable lines are skipped.
    @raise Sys_error on unreadable files. *)

val of_jsonl_string : string -> span list * int
(** Same, from an in-memory string. *)

type tree = { span : span; children : tree list }
(** Children in start-time order. *)

type trace = {
  trace_id : int;
  root : tree;
  span_count : int;  (** Spans reachable from [root]. *)
  orphans : int;  (** Spans whose parent id never appears in the trace. *)
}

val traces : span list -> trace list
(** Group by [trace_id] (ascending) and build each tree.  A trace with
    several parentless spans keeps the longest-running one as root and
    counts the rest under [orphans]. *)

type segment = {
  kind : string;  (** Span name the time is attributed to. *)
  span_id : int;
  from_ms : float;
  to_ms : float;
}

val critical_path : trace -> segment list
(** The chain of spans that bounded the trace end-to-end, in time order:
    walking backwards from the root's end, each step enters the child whose
    end time is latest; gaps between children are the parent's self time.
    Children outliving their parent (async completions) are clamped, so
    segment durations sum to the root's duration. *)

type breakdown = { kind : string; total_ms : float; share : float; count : int }

val by_kind : segment list -> breakdown list
(** Critical-path time grouped by span kind, largest share first.
    [share] is of the summed segment time ([0] when that is [0]). *)

type root_stats = { root_name : string; roots : int; p50 : float; p99 : float; max : float }
(** Root-span duration quantiles (ms) over the [roots] traces whose root
    is a [root_name] span. *)

type report = {
  trace_count : int;
  span_count : int;
  untraced : int;
  orphan_count : int;
  root_kinds : root_stats list;  (** One per root span kind, most common first. *)
  overall : breakdown list;  (** Critical-path time by kind, all traces. *)
  tail : breakdown list;
      (** Same, over traces whose root duration is at least the p99 of all
          root durations, whatever their kind. *)
  tail_traces : (int * float) list;  (** [(trace_id, root_ms)], slowest first. *)
}

val analyze : ?untraced:int -> span list -> report
(** The whole pipeline: trees, critical paths, aggregate and tail
    breakdowns.  Pass the [untraced] count from {!load} so the report can
    state what it skipped. *)

val report_to_string : report -> string
(** Multi-line human-readable rendering (the [nearby_sim trace] output). *)
