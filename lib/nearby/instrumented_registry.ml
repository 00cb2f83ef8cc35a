(* Timing middleware over any registry backend.

   [wrap] wraps a packed [Registry_intf.S] so every insert/remove/query is
   timed with a monotonic-enough wall clock and folded into the stream
   its sink gives for each name -- a flat [Simkit.Trace]'s, or a labeled
   [Simkit.Metrics]'s -- under uniform stream names: the same names for
   [tree], [naive] and [dht], which is what lets the metrics exporter and
   `bench obs` report identical per-backend latency quantiles.

   With a span sink attached, every operation additionally becomes one
   span, parented under whatever context is ambient ([Span.with_context] /
   [Span.with_span] in the caller) — so a store op shows up inside the join
   that caused it without any signature threading — and the recorded sample
   is tagged with that trace id, cross-linking the stream's tail exemplars
   to concrete traces.

   Instrumentation costs nothing when disabled: with no sink and no span
   sink, [wrap] returns the backend module
   unchanged (physically the same first-class module), so the disabled
   path is a direct call into the backend — no closure, no clock read, no
   branch. *)

let insert_ns = "registry_insert_ns"
let remove_ns = "registry_remove_ns"
let query_ns = "registry_query_ns"
let query_candidates = "registry_query_candidates"

(* Unix.gettimeofday is microsecond-granular; single sub-microsecond calls
   quantize to 0 or 1000 ns, which the quantile sketches tolerate (the
   distribution is what matters, and slow outliers are exactly what
   survives quantization). *)
let default_clock () = Unix.gettimeofday () *. 1e9

let wrap ?(clock = default_clock) ?sink ?spans backend : (module Registry_intf.S) =
  match (sink, spans) with
  | None, None -> backend
  | _ ->
      let module B = (val backend : Registry_intf.S) in
      let spans = Option.value spans ~default:Simkit.Span.noop in
      (module struct
        type t = B.t

        let backend_name = B.backend_name
        let create = B.create
        let landmark = B.landmark

        let observe ?trace_id stream v =
          match sink with
          | Some cell -> Simkit.Trace.observe_ref ?trace_id (cell stream) v
          | None -> ()

        (* The span runs on the sink's simulated clock (duration ~0 there:
           a store op is instantaneous in simulated time); the wall-clock
           cost goes to the metrics streams, tagged with the span's trace
           so the streams' exemplars point back at the causing trace.
           [with_span] closes the span even when the backend raises. *)
        let timed span_name stream f =
          Simkit.Span.with_span spans ~name:span_name ?parent:(Simkit.Span.current spans) []
            (fun ctx ->
              let t0 = clock () in
              let r = f () in
              observe ~trace_id:ctx.Simkit.Span.trace_id stream (clock () -. t0);
              r)

        let insert t ~peer ~routers =
          timed "registry_insert" insert_ns (fun () -> B.insert t ~peer ~routers)

        let remove t peer = timed "registry_remove" remove_ns (fun () -> B.remove t peer)
        let mem = B.mem
        let member_count = B.member_count
        let path_of = B.path_of
        let iter_members = B.iter_members
        let member_through = B.member_through
        let dtree = B.dtree

        let observe_query result =
          observe query_candidates (float_of_int (List.length result));
          result

        let query t ~routers ~k ?exclude () =
          observe_query
            (timed "registry_query" query_ns (fun () -> B.query t ~routers ~k ?exclude ()))

        let query_member t ~peer ~k =
          observe_query (timed "registry_query" query_ns (fun () -> B.query_member t ~peer ~k))

        (* A batch insert is the timed [insert] in a loop: one span and
           one sample per entry. *)
        include Registry_intf.Derive_batch (struct
          type nonrec t = t

          let landmark = landmark
          let mem = mem
          let insert = insert
        end)

        let stats = B.stats
        let introspect = B.introspect
        let check_invariants = B.check_invariants
      end)
