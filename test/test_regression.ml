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

let registry_doc ~dht_query =
  parse_exn
    (Printf.sprintf
       {| {"backends": [
            {"backend": "tree", "insert_ops_per_s": 1000.0, "query_ops_per_s": 2000.0,
             "answers_identical": true},
            {"backend": "dht", "insert_ops_per_s": 500.0, "query_ops_per_s": %g,
             "answers_identical": true}
          ]} |}
       dht_query)

let test_gate_passes_identical () =
  let doc = registry_doc ~dht_query:1000.0 in
  let metrics = Eval.Regression.registry_metrics doc in
  let comparisons = Eval.Regression.compare_metrics ~baseline:metrics ~current:metrics in
  Alcotest.(check int) "no failures" 0 (List.length (Eval.Regression.failures comparisons))

let test_gate_normalizes_to_tree () =
  (* Both backends 2x slower in absolute terms: relative metrics are
     unchanged, so a slower CI machine does not fail the gate. *)
  let baseline = Eval.Regression.registry_metrics (registry_doc ~dht_query:1000.0) in
  let scaled =
    parse_exn
      {| {"backends": [
           {"backend": "tree", "insert_ops_per_s": 500.0, "query_ops_per_s": 1000.0,
            "answers_identical": true},
           {"backend": "dht", "insert_ops_per_s": 250.0, "query_ops_per_s": 500.0,
            "answers_identical": true}
         ]} |}
  in
  let current = Eval.Regression.registry_metrics scaled in
  let comparisons = Eval.Regression.compare_metrics ~baseline ~current in
  Alcotest.(check int) "machine speed cancels" 0
    (List.length (Eval.Regression.failures comparisons))

let test_gate_catches_relative_regression () =
  let baseline = Eval.Regression.registry_metrics (registry_doc ~dht_query:1000.0) in
  (* dht query throughput drops 80% relative to tree — beyond the 60%
     tolerance. *)
  let current = Eval.Regression.registry_metrics (registry_doc ~dht_query:200.0) in
  let failures =
    Eval.Regression.failures (Eval.Regression.compare_metrics ~baseline ~current)
  in
  Alcotest.(check (list string)) "exactly the degraded metric"
    [ "registry/dht/query_rel_tree" ]
    (List.map (fun (c : Eval.Regression.comparison) -> c.name) failures)

let test_gate_fails_on_flipped_invariant () =
  let baseline = Eval.Regression.registry_metrics (registry_doc ~dht_query:1000.0) in
  let broken =
    parse_exn
      {| {"backends": [
           {"backend": "tree", "insert_ops_per_s": 1000.0, "query_ops_per_s": 2000.0,
            "answers_identical": true},
           {"backend": "dht", "insert_ops_per_s": 500.0, "query_ops_per_s": 1000.0,
            "answers_identical": false}
         ]} |}
  in
  let failures =
    Eval.Regression.failures
      (Eval.Regression.compare_metrics ~baseline
         ~current:(Eval.Regression.registry_metrics broken))
  in
  Alcotest.(check bool) "exact boolean gates" true
    (List.exists
       (fun (c : Eval.Regression.comparison) -> c.name = "registry/dht/answers_identical")
       failures)

let test_gate_fails_on_missing_metric () =
  let baseline = Eval.Regression.registry_metrics (registry_doc ~dht_query:1000.0) in
  let shrunk =
    parse_exn
      {| {"backends": [
           {"backend": "tree", "insert_ops_per_s": 1000.0, "query_ops_per_s": 2000.0,
            "answers_identical": true}
         ]} |}
  in
  let failures =
    Eval.Regression.failures
      (Eval.Regression.compare_metrics ~baseline
         ~current:(Eval.Regression.registry_metrics shrunk))
  in
  Alcotest.(check int) "every dht metric missing fails" 3 (List.length failures);
  List.iter
    (fun (c : Eval.Regression.comparison) ->
      Alcotest.(check bool) "flagged as missing" true (c.current = None))
    failures

(* A sharded:4 query measured on a machine with fewer domains than shards
   is skipped with its reason, never silently passed; with enough domains
   (or none recorded) the same collapse fails as it should. *)
let test_gate_skips_sharded_query_below_shard_count () =
  let doc ~domains ~sharded_query =
    parse_exn
      (Printf.sprintf
         {| {"meta": {"domains": %d},
             "backends": [
               {"backend": "tree", "insert_ops_per_s": 1000.0, "query_ops_per_s": 2000.0,
                "answers_identical": true},
               {"backend": "sharded:4", "insert_ops_per_s": 900.0, "query_ops_per_s": %g,
                "answers_identical": true}
             ],
             "sweep": [
               {"n": 10000, "backend": "tree", "query_ops_per_s": 2000.0,
                "answers_identical": true, "members": 10000, "approx_bytes": 4000000},
               {"n": 10000, "backend": "sharded:4", "query_ops_per_s": %g,
                "answers_identical": true, "members": 10000, "approx_bytes": 4000000}
             ]} |}
         domains sharded_query sharded_query)
  in
  let baseline = Eval.Regression.registry_metrics (doc ~domains:8 ~sharded_query:2000.0) in
  let compare domains =
    Eval.Regression.compare_metrics ~baseline
      ~current:(Eval.Regression.registry_metrics (doc ~domains ~sharded_query:300.0))
  in
  let names = List.map (fun (c : Eval.Regression.comparison) -> c.name) in
  let gates =
    [ "registry/sharded:4/query_rel_tree"; "registry/sweep/10000/sharded:4/query_rel_tree" ]
  in
  let on_two = compare 2 in
  Alcotest.(check (list string)) "no failure on 2 domains" []
    (names (Eval.Regression.failures on_two));
  Alcotest.(check (list string)) "both query gates skipped" gates
    (names
       (List.filter
          (fun (c : Eval.Regression.comparison) ->
            c.status = Eval.Regression.Skipped "meta.domains 2 < 4 shards")
          on_two));
  Alcotest.(check (list string)) "gated on 4 domains" gates
    (names (Eval.Regression.failures (compare 4)))

let test_resilience_metrics_shape () =
  let doc =
    parse_exn
      {| {"runs": [
           {"scenario": "crash-primary", "replicas": 3, "completion_rate": 1.0,
            "join_p99_ms": 120.5, "consistent": true}
         ]} |}
  in
  let metrics = Eval.Regression.resilience_metrics doc in
  Alcotest.(check (list string)) "per scenario x replicas keys"
    [
      "resilience/crash-primary/r3/completion_rate";
      "resilience/crash-primary/r3/join_p99_ms";
      "resilience/crash-primary/r3/consistent";
    ]
    (List.map (fun (m : Eval.Regression.metric) -> m.name) metrics);
  (* join_p99 is Lower_better: a 10% slowdown sits inside the 15% band,
     a 30% one does not. *)
  let bump f =
    List.map
      (fun (m : Eval.Regression.metric) ->
        if m.name = "resilience/crash-primary/r3/join_p99_ms" then
          { m with Eval.Regression.value = m.value *. f }
        else m)
      metrics
  in
  let failures current =
    List.length
      (Eval.Regression.failures (Eval.Regression.compare_metrics ~baseline:metrics ~current))
  in
  Alcotest.(check int) "10%% slower passes" 0 (failures (bump 1.10));
  Alcotest.(check int) "30%% slower fails" 1 (failures (bump 1.30))

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
      Alcotest.test_case "missing metric fails" `Quick test_gate_fails_on_missing_metric;
      Alcotest.test_case "resilience tolerances" `Quick test_resilience_metrics_shape;
      Alcotest.test_case "sharded query skipped below shard count" `Quick
        test_gate_skips_sharded_query_below_shard_count;
    ] )
