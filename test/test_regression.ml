(* The dependency-free JSON reader and the bench regression gate built on
   top of it. *)

let parse_exn s =
  match Simkit.Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "%S: %s" s e)

(* --- Simkit.Json ------------------------------------------------------- *)

let test_json_scalars () =
  Alcotest.(check bool) "null" true (parse_exn "null" = Simkit.Json.Null);
  Alcotest.(check bool) "true" true (parse_exn "true" = Simkit.Json.Bool true);
  Alcotest.(check (option (float 1e-9))) "int" (Some 42.0)
    (Simkit.Json.to_float (parse_exn "42"));
  Alcotest.(check (option (float 1e-9))) "negative exponent" (Some (-1.5e3))
    (Simkit.Json.to_float (parse_exn "-1.5e3"));
  Alcotest.(check (option string)) "escapes" (Some "a\"b\\c\n")
    (Simkit.Json.to_string (parse_exn "\"a\\\"b\\\\c\\n\""))

let test_json_structures () =
  let doc = parse_exn {| {"meta": {"seed": 7}, "runs": [1, 2, 3], "flag": false} |} in
  Alcotest.(check (option (float 1e-9))) "path" (Some 7.0)
    (Option.bind (Simkit.Json.path [ "meta"; "seed" ] doc) Simkit.Json.to_float);
  Alcotest.(check (option bool)) "bool member" (Some false)
    (Option.bind (Simkit.Json.member "flag" doc) Simkit.Json.to_bool);
  (match Option.bind (Simkit.Json.member "runs" doc) Simkit.Json.to_list with
  | Some l -> Alcotest.(check int) "array length" 3 (List.length l)
  | None -> Alcotest.fail "runs not a list");
  Alcotest.(check bool) "missing member" true (Simkit.Json.member "nope" doc = None)

let test_json_rejects_garbage () =
  let rejects s =
    match Simkit.Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
  in
  rejects "";
  rejects "{";
  rejects "[1, 2,]";
  rejects "{\"a\" 1}";
  rejects "1 2" (* trailing content *);
  rejects "nul"

let test_json_roundtrips_own_exporters () =
  (* Everything this repo writes must be readable by its own reader. *)
  let t = Simkit.Trace.create () in
  Simkit.Trace.incr t "joins";
  List.iter (Simkit.Trace.observe t "lat") [ 1.0; 5.0; 9.0 ];
  let ts = Simkit.Timeseries.create ~window_ms:10.0 () in
  Simkit.Timeseries.observe ts "lat" ~now:0.0 1.0;
  Simkit.Timeseries.observe ts "lat" ~now:25.0 2.0;
  let doc =
    Simkit.Export.metrics_json
      ~meta:(Simkit.Export.capture_meta ~seed:3 ())
      ~timeseries:[ ("run", ts) ]
      [ ("server", t) ]
  in
  let parsed = parse_exn doc in
  Alcotest.(check (option (float 1e-9))) "counter via reader" (Some 1.0)
    (Option.bind
       (Simkit.Json.path [ "sections"; "server"; "counters"; "joins" ] parsed)
       Simkit.Json.to_float);
  Alcotest.(check bool) "timeseries key readable" true
    (Simkit.Json.path [ "timeseries"; "run"; "series"; "lat" ] parsed <> None)

(* --- Regression gate --------------------------------------------------- *)

module R = Eval.Regression

(* Gates travel through a document: written by the emitter, read back by
   the comparator. *)
let through_document gates =
  match
    R.of_document (parse_exn (Simkit.Export.bench_json [ ("gates", R.to_json gates) ]))
  with
  | Ok gates -> gates
  | Error e -> Alcotest.fail e

let compare ~baseline ~current =
  R.compare_gates ~baseline:(through_document baseline) ~current:(through_document current)

let names = List.map (fun (c : R.comparison) -> c.name)
let failed ~baseline ~current = names (R.failures (compare ~baseline ~current))

(* The registry emitter's gates, from its typed rows. *)
module G = Eval.Registry_gates

let row ?(identical = true) spec insert_ops query_ops = { G.spec; insert_ops; query_ops; identical }

let sweep_row n =
  { G.sw_n = n; sw_insert_ops = 1000.0; sw_query_ops = 2000.0; sw_members = n; sw_bytes = 100 * n }

let registry ?identical ~dht_query () =
  G.registry ~query_words_per_answer:6.0
    [ row Eval.Backends.Tree 1000.0 2000.0; row ?identical Eval.Backends.Dht 500.0 dht_query ]
    []

let test_gate_passes_identical () =
  let gates = registry ~dht_query:1000.0 () in
  Alcotest.(check (list string)) "no failures" [] (failed ~baseline:gates ~current:gates)

let test_gate_normalizes_to_tree () =
  (* Both backends 2x slower in absolute terms: relative gates are
     unchanged, so a slower CI machine does not fail the gate. *)
  let scaled =
    G.registry ~query_words_per_answer:6.0
      [ row Eval.Backends.Tree 500.0 1000.0; row Eval.Backends.Dht 250.0 500.0 ]
      []
  in
  Alcotest.(check (list string)) "machine speed cancels" []
    (failed ~baseline:(registry ~dht_query:1000.0 ()) ~current:scaled)

let test_gate_catches_relative_regression () =
  (* dht query throughput drops 80% relative to tree — beyond the 60%
     tolerance. *)
  Alcotest.(check (list string)) "exactly the degraded gate"
    [ "registry/dht/query_rel_tree" ]
    (failed ~baseline:(registry ~dht_query:1000.0 ()) ~current:(registry ~dht_query:200.0 ()))

let test_gate_fails_on_flipped_invariant () =
  Alcotest.(check (list string)) "exact boolean gates"
    [ "registry/dht/answers_identical" ]
    (failed ~baseline:(registry ~dht_query:1000.0 ())
       ~current:(registry ~identical:false ~dht_query:1000.0 ()))

(* The tree's words per answer are exact: a query allocating one more
   word per neighbor fails, whatever the machine. *)
let test_gate_catches_query_allocation () =
  let words w =
    G.registry ~query_words_per_answer:w
      [ row Eval.Backends.Tree 1000.0 2000.0; row Eval.Backends.Dht 500.0 1000.0 ]
      []
  in
  Alcotest.(check (list string)) "exactly the words gate"
    [ "registry/tree/query_words_per_answer" ]
    (failed ~baseline:(words 6.0) ~current:(words 7.0))

let test_gate_fails_on_missing_metric () =
  let shrunk = G.registry ~query_words_per_answer:6.0 [ row Eval.Backends.Tree 1000.0 2000.0 ] [] in
  let failures =
    R.failures (compare ~baseline:(registry ~dht_query:1000.0 ()) ~current:shrunk)
  in
  Alcotest.(check int) "every dht gate missing fails" 3 (List.length failures);
  List.iter
    (fun (c : R.comparison) ->
      Alcotest.(check bool) "flagged as missing" true (c.current = None && c.status = Fail "missing"))
    failures

(* The sweep gates each tree point's members and bytes/member; points
   above 100k members are not gated, because CI sweeps to 100k. *)
let test_gate_sweep_stops_at_100k () =
  let gates =
    G.registry ~query_words_per_answer:6.0 [ row Eval.Backends.Tree 1000.0 2000.0 ]
      (List.map sweep_row [ 10_000; 100_000; 1_000_000 ])
  in
  Alcotest.(check (list string)) "members and bytes/member to 100k"
    [
      "registry/tree/answers_identical";
      "registry/tree/query_words_per_answer";
      "registry/sweep/10000/tree/members";
      "registry/sweep/10000/tree/bytes_per_member";
      "registry/sweep/100000/tree/members";
      "registry/sweep/100000/tree/bytes_per_member";
    ]
    (List.map (fun (g : R.gate) -> g.name) gates)

let resilience_result : Eval.Resilience_exp.result =
  {
    scenario = "crash-primary";
    replicas = 3;
    loss = 0.0;
    joins = 100;
    completed = 100;
    failed = 0;
    completion_rate = 1.0;
    join_p50_ms = 60.0;
    join_p99_ms = 120.5;
    rpc_attempts = 110;
    rpc_retries = 10;
    rpc_timeouts = 10;
    rpc_gave_up = 0;
    suspicions = 1;
    sync_rounds = 5;
    recovery_ms = Some 900.0;
    consistent = true;
    live_peer_counts = [ 100; 100 ];
    dropped_loss = 0;
    dropped_unreachable = 10;
    dropped_partition = 0;
    slo_breaches = [];
  }

let test_resilience_metrics_shape () =
  let gates r = Eval.Resilience_exp.gates r in
  Alcotest.(check (list string)) "per scenario x replicas keys"
    [
      "resilience/crash-primary/r3/completion_rate";
      "resilience/crash-primary/r3/join_p99_ms";
      "resilience/crash-primary/r3/consistent";
    ]
    (List.map (fun (g : R.gate) -> g.name) (gates resilience_result));
  (* join_p99 reads the simulated clock, so it is exact: a 1% slowdown
     fails. *)
  let slower f = gates { resilience_result with join_p99_ms = resilience_result.join_p99_ms *. f } in
  let baseline = gates resilience_result in
  Alcotest.(check (list string)) "1%% slower fails" [ "resilience/crash-primary/r3/join_p99_ms" ]
    (failed ~baseline ~current:(slower 1.01))

let test_gates_round_trip () =
  let gates =
    R.
      [
        wall_clock_ratio "a/higher" 1234.5 Higher_better 0.6;
        wall_clock_ratio "a/lower" 0.125 Lower_better 1.5;
        flag "a/flag" true;
        exact "a/members" 100000.0;
      ]
  in
  Alcotest.(check bool) "read back equal" true (through_document gates = gates)

(* A burst that causes no detectable divergence leaves the detection
   latency nan, written as null: that gate fails with its reason, and
   nothing raises. *)
let test_null_gate_value_fails () =
  let result : Eval.Health_exp.result =
    {
      joins = 1200;
      completed = 1200;
      failed = 0;
      completion_rate = 1.0;
      digest_checks = 60;
      checks_consistent = 50;
      checks_divergent = 10;
      divergence_episodes = 2;
      convergence_episodes = 2;
      max_divergent_replicas = 2;
      detection_latency_ms = 250.0;
      lag_count = 2;
      lag_p50_ms = 742.0;
      lag_max_ms = 900.0;
      sync_rounds = 10;
      sync_restores = 4;
      sync_skipped = 16;
      sync_bytes = 4096;
      snapshot_wire_bytes = 5000;
      report_age_p50_ms = 15_000.0;
      report_age_p90_ms = 20_000.0;
      report_age_p99_ms = 25_000.0;
      report_age_oldest_ms = 26_000.0;
      refresh_total = 3000;
      refresh_rate_hz = 160.0;
      final_divergent = 0;
      converged = true;
    }
  in
  let comparisons =
    compare ~baseline:(Eval.Health_exp.gates result)
      ~current:(Eval.Health_exp.gates { result with detection_latency_ms = Float.nan })
  in
  Alcotest.(check (list string)) "one failing gate" [ "health/detection_latency_ms" ]
    (names (R.failures comparisons));
  Alcotest.(check bool) "with its reason" true
    (List.exists (fun (c : R.comparison) -> c.status = Fail "not a finite number") comparisons)

(* The tiny bench/stack gates: a summary line in, exact gates that read
   back bit for bit out; a failed check, a failed operation, a moved or a
   missing metric each fail the comparison. *)
let test_stack_gates () =
  let summary ~correct ~failed ~p99 =
    parse_exn
      (Printf.sprintf
         {|{"correct": %b, "attempted": 10, "failed": %d, "metrics": {"state_bytes_per_member": {"value": 436.84, "unit": "B"}, "client_bytes_per_op": {"value": 33.945, "unit": "B"}, "wire_bytes_per_op": {"value": 95.035, "unit": "B"}, "latency_p50_ms": {"value": 18.04756693329341, "unit": "ms"}%s}}|}
         correct failed
         (match p99 with
         | Some v -> Printf.sprintf {|, "latency_p99_ms": {"value": %.17g, "unit": "ms"}|} v
         | None -> ""))
  in
  let p99 = 34.04699761520732 in
  let gates s =
    R.of_document (parse_exn (Printf.sprintf {|{"gates": %s}|} (R.to_json_exact s)))
    |> Result.get_ok
  in
  let baseline = gates (Eval.Stack_gates.gates "join-steady" (summary ~correct:true ~failed:0 ~p99:(Some p99))) in
  Alcotest.(check (list string)) "names"
    [
      "stack/join-steady/correct";
      "stack/join-steady/no_failed";
      "stack/join-steady/state_bytes_per_member";
      "stack/join-steady/client_bytes_per_op";
      "stack/join-steady/wire_bytes_per_op";
      "stack/join-steady/latency_p50_ms";
      "stack/join-steady/latency_p99_ms";
    ]
    (List.map (fun (g : R.gate) -> g.name) baseline);
  Alcotest.(check bool) "every gate exact" true
    (List.for_all (fun (g : R.gate) -> g.direction = R.Exact) baseline);
  Alcotest.(check (float 0.0)) "p99 read back bit for bit" p99 (List.nth baseline 6).value;
  let failures current =
    List.map
      (fun (c : R.comparison) -> c.name)
      (R.failures (R.compare_gates ~baseline ~current:(gates (Eval.Stack_gates.gates "join-steady" current))))
  in
  Alcotest.(check (list string)) "the same run passes" []
    (failures (summary ~correct:true ~failed:0 ~p99:(Some p99)));
  Alcotest.(check (list string)) "a failed check" [ "stack/join-steady/correct" ]
    (failures (summary ~correct:false ~failed:0 ~p99:(Some p99)));
  Alcotest.(check (list string)) "a failed operation" [ "stack/join-steady/no_failed" ]
    (failures (summary ~correct:true ~failed:1 ~p99:(Some p99)));
  Alcotest.(check (list string)) "p99 one ulp off" [ "stack/join-steady/latency_p99_ms" ]
    (failures (summary ~correct:true ~failed:0 ~p99:(Some (Float.succ p99))));
  Alcotest.(check (list string)) "p99 missing" [ "stack/join-steady/latency_p99_ms" ]
    (failures (summary ~correct:true ~failed:0 ~p99:None));
  Alcotest.(check (list string)) "query-250k gates no latency"
    [ "state_bytes_per_member"; "client_bytes_per_op"; "wire_bytes_per_op" ]
    (Eval.Stack_gates.metrics "query-250k")

(* The rule every committed baseline keeps: a simulated number or a count
   is exact, and only the same-run wall-clock ratios carry a band. *)
let test_baselines_banded_only_wall_ratios () =
  let dir = "../bench/baselines" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  in
  Alcotest.(check bool) "baselines found" true (files <> []);
  let banded file =
    match Result.bind (Simkit.Json.of_file (Filename.concat dir file)) R.of_document with
    | Ok gates ->
        List.filter_map
          (fun (g : R.gate) ->
            if g.direction = R.Exact && g.tolerance = 0.0 then None else Some (file ^ " " ^ g.name))
          gates
    | Error e -> Alcotest.fail (file ^ ": " ^ e)
  in
  Alcotest.(check (list string)) "banded gates other than *_rel_tree" []
    (List.filter
       (fun g -> not (String.ends_with ~suffix:"_rel_tree" g))
       (List.concat_map banded files))

let suite =
  ( "regression-gate",
    [
      Alcotest.test_case "json scalars" `Quick test_json_scalars;
      Alcotest.test_case "json structures" `Quick test_json_structures;
      Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
      Alcotest.test_case "json reads own exporters" `Quick test_json_roundtrips_own_exporters;
      Alcotest.test_case "identical docs pass" `Quick test_gate_passes_identical;
      Alcotest.test_case "machine speed cancels" `Quick test_gate_normalizes_to_tree;
      Alcotest.test_case "relative regression fails" `Quick test_gate_catches_relative_regression;
      Alcotest.test_case "flipped invariant fails" `Quick test_gate_fails_on_flipped_invariant;
      Alcotest.test_case "query words per answer gate" `Quick test_gate_catches_query_allocation;
      Alcotest.test_case "missing metric fails" `Quick test_gate_fails_on_missing_metric;
      Alcotest.test_case "resilience p99 is exact" `Quick test_resilience_metrics_shape;
      Alcotest.test_case "sweep gated to 100k" `Quick test_gate_sweep_stops_at_100k;
      Alcotest.test_case "gates round-trip through a document" `Quick test_gates_round_trip;
      Alcotest.test_case "null gate value fails, no exception" `Quick test_null_gate_value_fails;
      Alcotest.test_case "stack gates are exact" `Quick test_stack_gates;
      Alcotest.test_case "baselines band only wall-clock ratios" `Quick
        test_baselines_banded_only_wall_ratios;
    ] )
