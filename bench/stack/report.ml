(* The metric catalogue and the output format.  BENCHMARK.json at the
   repository root lists the same names and units; the test suite holds
   the two equal. *)

(* End-to-end metrics, measured with tracing off. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("alloc_words_per_op", "words");
    ("state_bytes_per_member", "B");
    ("client_bytes_per_op", "B");
    ("wire_bytes_per_op", "B");
  ]

(* Per-layer metrics, from the traced run.  A layer a workload does not
   exercise reads 0; every timing here is one all four workloads exercise. *)
let per_layer =
  [
    ("engine.events_per_op", "count");
    ("engine.self_share", "share");
    ("protocol.share", "share");
    ("rpc.attempts_per_call", "count");
    ("rpc.timeouts_per_call", "count");
    ("rpc.gave_up_per_call", "count");
    ("transport.msgs_per_op", "count");
    ("transport.dropped_per_op", "count");
    ("wire.path_report_bytes_per_op", "B");
    ("wire.query_bytes_per_op", "B");
    ("wire.reply_bytes_per_op", "B");
    ("wire.snapshot_bytes_per_op", "B");
    ("wire.fd_probe_bytes_per_op", "B");
    ("wire.retry_bytes_per_op", "B");
    ("cluster.sync_share", "share");
    ("cluster.restores_per_round", "count");
    ("cluster.skipped_per_round", "count");
    ("cluster.replicate_sends_per_op", "count");
    ("admission.share", "share");
    ("admission.max_depth", "count");
    ("admission.drains_per_op", "count");
    ("server.share", "share");
    ("server.neighbors_us_p50", "us");
    ("server.neighbors_us_p99", "us");
    ("registry.share", "share");
    ("registry.query_us_p50", "us");
    ("registry.query_us_p99", "us");
    ("registry.insert_us_per_entry", "us");
    ("registry.calls_per_op", "count");
    ("registry.bytes_per_member", "B");
    ("ladder.server_frac", "share");
    ("ladder.cluster_fanout_frac", "share");
    ("ladder.rpc_transport_frac", "share");
    ("ladder.sync_off_error", "share");
    ("obs.words_per_op", "words");
    ("obs.cost_frac", "share");
    ("gc.minor_collections_per_kop", "count");
    ("gc.major_collections_per_kop", "count");
    ("gc.promoted_words_per_op", "words");
    ("bench.share", "share");
    ("trace.unattributed_share", "share");
    ("trace.overhead_frac", "share");
  ]

let time_units = [ "s"; "ms"; "us" ]

(* Resolve every catalogued metric.  A missing end-to-end metric or a
   missing timing is a defect of the benchmark, reported as a failed
   check; a missing per-layer count or share is a layer the workload does
   not use and reads 0. *)
let resolve ~traced (r : Common.result) =
  let catalogue = if traced then per_layer else end_to_end in
  let problems = ref [] in
  let values =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name r.metrics with
        | Some v when Float.is_finite v -> (name, unit, v)
        | found ->
            if (not traced) || List.mem unit time_units || found <> None then
              problems := name :: !problems;
            (name, unit, 0.0))
      catalogue
  in
  let extra = List.filter (fun (n, _) -> not (List.mem_assoc n catalogue)) r.metrics in
  let checks =
    ("every catalogued metric measured", !problems = [])
    :: ("no uncatalogued metric", extra = [])
    :: r.checks
  in
  (values, checks)

let json_number v = Printf.sprintf "%.17g" v

let print ~workload ~(opts : Common.opts) (r : Common.result) =
  let values, checks = resolve ~traced:opts.traced r in
  Printf.printf "workload %s seed %d trace %d\n" workload opts.seed (if opts.traced then 1 else 0);
  List.iter
    (fun (name, unit, v) ->
      match List.assoc_opt name r.notes with
      | Some note -> Printf.printf "%s %s %s (%s)\n" name (json_number v) unit note
      | None -> Printf.printf "%s %s %s\n" name (json_number v) unit)
    values;
  List.iter
    (fun (name, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") name)
    checks;
  let correct = List.for_all snd checks in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit)
         values)
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    r.attempted r.failed metrics;
  print_newline ();
  correct
