(** Timing middleware over any {!Registry_intf.S} backend.

    Wraps a packed backend module so [insert], [remove], [query] and
    [query_member] are individually timed and recorded into a shared
    {!Simkit.Trace} or a labeled {!Simkit.Metrics} registry, under
    uniform stream names, identical for every backend:

    - ["registry_insert_ns"], ["registry_remove_ns"], ["registry_query_ns"]
      — per-operation wall time, nanoseconds;
    - ["registry_query_candidates"] — candidates returned per query.

    The upgraded trace gives each stream p50/p90/p99 alongside mean/CI, so
    every backend gets tail-latency metrics for free; answers, stats,
    introspection and snapshots pass through untouched.

    With a span sink, each operation additionally emits one span
    (["registry_insert"] / ["registry_remove"] / ["registry_query"])
    parented under the ambient context ({!Simkit.Span.current}), and the
    timed sample is recorded with that context's trace id — the stream's
    tail exemplars then point back at the traces that caused them. *)

val insert_ns : string
val remove_ns : string
val query_ns : string
val query_candidates : string
(** The stream names above, as values (exporters and benches reference
    them rather than retyping the literals). *)

val wrap :
  ?clock:(unit -> float) ->
  ?sink:(string -> Simkit.Trace.stream) ->
  ?spans:Simkit.Span.sink ->
  (module Registry_intf.S) ->
  (module Registry_intf.S)
(** [wrap ?sink ?spans b] is [b] with timed hot paths, each sample
    observed once into [sink name], the stream of its name: a flat
    trace's ({!Simkit.Trace.stream_ref}), or a series of a labeled
    registry, where a [{backend="<backend_name>"}] label keeps several
    wrapped backends apart.  [spans] receives one per-operation span
    parented on the ambient context.  [clock] (default
    [Unix.gettimeofday]-based, nanoseconds) is injectable for
    deterministic tests.  With neither sink, the result is {e physically}
    [b] itself: instrumentation compiles down to direct backend calls
    when disabled. *)
