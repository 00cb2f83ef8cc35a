(* Trace (counters, sketch-backed streams, reset-in-place), Span sinks and
   JSONL export, metric exporters, and the instrumented-registry wrapper. *)

open Simkit

(* --- counters --------------------------------------------------------- *)

let test_counters () =
  let t = Trace.create () in
  Alcotest.(check int) "zero default" 0 (Trace.counter t "x");
  Trace.incr t "x";
  Trace.incr t "x";
  Trace.add_count t "y" 5;
  Alcotest.(check int) "incr" 2 (Trace.counter t "x");
  Alcotest.(check (list (pair string int))) "sorted" [ ("x", 2); ("y", 5) ] (Trace.counters t)

let test_counter_ref_survives_reset () =
  (* Regression: Hashtbl.reset orphaned previously handed-out refs, so a
     cached hot-path ref silently counted into a dropped cell. *)
  let t = Trace.create () in
  let r = Trace.counter_ref t "hot" in
  r := !r + 3;
  Alcotest.(check int) "cached ref visible" 3 (Trace.counter t "hot");
  Trace.reset t;
  Alcotest.(check int) "reset zeroes" 0 (Trace.counter t "hot");
  r := !r + 2;
  Alcotest.(check int) "cached ref still live after reset" 2 (Trace.counter t "hot");
  Trace.incr t "hot";
  Alcotest.(check int) "fresh writes share the cell" 3 !r

let test_stat_handle_survives_reset () =
  let t = Trace.create () in
  Trace.observe t "lat" 4.0;
  let s = Option.get (Trace.stat t "lat") in
  Trace.reset t;
  Alcotest.(check int) "cleared in place" 0 (Prelude.Stats.count s);
  Trace.observe t "lat" 9.0;
  Alcotest.(check int) "handle sees new samples" 1 (Prelude.Stats.count s);
  Alcotest.(check (float 1e-9)) "mean restarted" 9.0 (Prelude.Stats.mean s)

(* --- streams ---------------------------------------------------------- *)

let test_observe_stat () =
  let t = Trace.create () in
  Trace.observe t "lat" 1.0;
  Trace.observe t "lat" 3.0;
  (match Trace.stat t "lat" with
  | Some s -> Alcotest.(check (float 1e-9)) "mean" 2.0 (Prelude.Stats.mean s)
  | None -> Alcotest.fail "missing stat");
  Alcotest.(check bool) "unknown stream" true (Trace.stat t "nope" = None);
  Alcotest.(check bool) "unknown summary" true (Trace.summary t "nope" = None)

(* Quantile reads come from the sketch: within its relative-error bound. *)
let within_alpha exact = Alcotest.float (Prelude.Sketch.default_alpha *. exact)

let test_summary_small_stream () =
  let t = Trace.create () in
  List.iter (Trace.observe t "s") [ 10.0; 20.0; 30.0 ];
  let s = Option.get (Trace.summary t "s") in
  Alcotest.(check int) "count" 3 s.Trace.count;
  Alcotest.(check (within_alpha 20.0)) "exact p50 below warmup" 20.0 s.Trace.p50;
  Alcotest.(check (option (float 1e-9))) "min" (Some 10.0) s.Trace.min;
  Alcotest.(check (option (float 1e-9))) "max" (Some 30.0) s.Trace.max

let test_min_max_opt () =
  let s = Prelude.Stats.create () in
  Alcotest.(check (option (float 1e-9))) "empty min" None (Prelude.Stats.min_opt s);
  Alcotest.(check (option (float 1e-9))) "empty max" None (Prelude.Stats.max_opt s);
  Prelude.Stats.add s 7.0;
  Alcotest.(check (option (float 1e-9))) "min" (Some 7.0) (Prelude.Stats.min_opt s);
  Alcotest.(check (option (float 1e-9))) "max" (Some 7.0) (Prelude.Stats.max_opt s)

let rel_tolerance ~samples ~q ~rel estimate =
  let exact = Prelude.Stats.percentile samples (q *. 100.0) in
  let err = Float.abs (estimate -. exact) /. Float.max 1e-9 (Float.abs exact) in
  Alcotest.(check bool)
    (Printf.sprintf "q=%.2f estimate %.3f within %.1f%% of exact %.3f" q estimate (rel *. 100.0)
       exact)
    true (err <= rel)

let test_quantiles_uniform () =
  let t = Trace.create () in
  let rng = Prelude.Prng.create 42 in
  let samples = Array.init 10_000 (fun _ -> Prelude.Prng.float rng 100.0) in
  Array.iter (Trace.observe t "u") samples;
  let s = Option.get (Trace.summary t "u") in
  let rel = 2.0 *. Prelude.Sketch.default_alpha in
  rel_tolerance ~samples ~q:0.5 ~rel s.Trace.p50;
  rel_tolerance ~samples ~q:0.9 ~rel s.Trace.p90;
  rel_tolerance ~samples ~q:0.99 ~rel s.Trace.p99

let test_quantiles_heavy_tail () =
  (* Pareto-ish: 1 / (1 - u) — the shape latency tails actually have. *)
  let t = Trace.create () in
  let rng = Prelude.Prng.create 11 in
  let samples = Array.init 10_000 (fun _ -> 1.0 /. (1.0 -. Prelude.Prng.float rng 0.999)) in
  Array.iter (Trace.observe t "h") samples;
  let s = Option.get (Trace.summary t "h") in
  let rel = 2.0 *. Prelude.Sketch.default_alpha in
  rel_tolerance ~samples ~q:0.5 ~rel s.Trace.p50;
  rel_tolerance ~samples ~q:0.99 ~rel s.Trace.p99

let test_stream_reset_in_place () =
  let t = Trace.create () in
  for _ = 1 to 100 do
    Trace.observe t "s" 5.0
  done;
  Trace.reset t;
  let s = Option.get (Trace.summary t "s") in
  Alcotest.(check int) "count zeroed" 0 s.Trace.count;
  Alcotest.(check bool) "p50 nan when empty" true (Float.is_nan s.Trace.p50);
  Alcotest.(check (option (float 1e-9))) "min null" None s.Trace.min;
  List.iter (Trace.observe t "s") [ 1.0; 2.0; 3.0 ];
  let s = Option.get (Trace.summary t "s") in
  Alcotest.(check (within_alpha 2.0)) "quantiles restart exact" 2.0 s.Trace.p50

let test_quantile_clear () =
  (* Reset clears a stream's sketch in place, keeping its bucket array;
     refilled, the stream must read exactly like a fresh one. *)
  let t = Trace.create () in
  for i = 1 to 50 do
    Trace.observe t "s" (float_of_int i)
  done;
  Trace.reset t;
  Alcotest.(check bool) "estimate nan" true (Float.is_nan (Option.get (Trace.quantile t "s" 0.5)));
  Alcotest.(check int) "no buckets" 0 (List.length (Trace.buckets t "s"));
  let fresh = Trace.create () in
  for i = 1 to 200 do
    let v = float_of_int ((i * 7919) mod 100) in
    Trace.observe t "s" v;
    Trace.observe fresh "s" v
  done;
  let reads t = List.map (fun q -> Option.get (Trace.quantile t "s" q)) [ 0.0; 0.5; 0.99; 1.0 ] in
  Alcotest.(check (list (float 0.0))) "cleared sketch = fresh sketch" (reads fresh) (reads t)

(* --- spans ------------------------------------------------------------ *)

let test_span_noop () =
  let s = Span.noop in
  Alcotest.(check bool) "disabled" false (Span.enabled s);
  Span.emit s ~name:"x" ~ts:0.0 [];
  Span.set_clock s (fun () -> 5.0);
  Alcotest.(check (float 1e-9)) "clock pinned" 0.0 (Span.now s);
  Alcotest.(check int) "no events" 0 (Span.event_count s);
  Alcotest.(check string) "empty jsonl" "" (Span.to_jsonl s)

let test_span_buffer () =
  let s = Span.buffer ~pid:3 () in
  Alcotest.(check bool) "enabled" true (Span.enabled s);
  Alcotest.(check (float 1e-9)) "default clock" 0.0 (Span.now s);
  Span.emit s ~name:"join" ~ts:(Span.now s) ~dur:2.5 ~tid:7
    [ ("peer", Span.Int 7); ("rtt", Span.Float 2.5); ("ok", Span.Bool true); ("who", Span.Str "p\"1") ];
  Span.set_clock s (fun () -> 2.5);
  Span.emit s ~name:"query" ~ts:(Span.now s) ~tid:7 [];
  Alcotest.(check (float 1e-9)) "installed clock read" 2.5 (Span.now s);
  Alcotest.(check int) "two events" 2 (Span.event_count s);
  let lines = String.split_on_char '\n' (String.trim (Span.to_jsonl s)) in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  let first = List.hd lines in
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "complete event" true (contains "\"ph\": \"X\"" first);
  Alcotest.(check bool) "pid" true (contains "\"pid\": 3" first);
  Alcotest.(check bool) "ts in microseconds" true (contains "\"ts\": 0" first);
  Alcotest.(check bool) "dur scaled" true (contains "\"dur\": 2500" first);
  Alcotest.(check bool) "escaped string arg" true (contains "\"who\": \"p\\\"1\"" first)

let contains needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* An in-process join is one root "join" span enclosing its "measure" and
   "register" spans; a query is a root of its own. *)
let test_server_spans () =
  let d = Eval.Paper_drawing.build () in
  let oracle = Traceroute.Route_oracle.create d.graph in
  let spans = Span.buffer () in
  let now = ref 100.0 in
  Span.set_clock spans (fun () -> !now);
  let server = Nearby.Server.create ~spans oracle ~landmarks:[| d.lmk |] in
  let client = Nearby.Client.create oracle ~landmarks:[| d.lmk |] in
  let attach = Eval.Paper_drawing.peer_attach_routers d in
  for peer = 0 to 2 do
    ignore (Nearby.Server.join server ~client ~peer ~attach_router:attach.(peer));
    now := !now +. 50.0
  done;
  ignore (Nearby.Server.neighbors server ~peer:0 ~k:2);
  ignore (Nearby.Server.neighbors server ~peer:0 ~k:2);
  let events = Span.events spans in
  let ctx (e : Span.event) = Option.get e.ctx in
  List.iter
    (fun peer ->
      let evs = List.filter (fun (e : Span.event) -> e.tid = peer) events in
      let named name = List.filter (fun (e : Span.event) -> e.name = name) evs in
      let join =
        match named "join" with
        | [ j ] -> j
        | js -> Alcotest.failf "peer %d: %d join spans" peer (List.length js)
      in
      Alcotest.(check bool) (Printf.sprintf "peer %d: join is a root" peer) true
        ((ctx join).parent_span_id = None);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "peer %d: join starts on the sink clock" peer)
        (100.0 +. (50.0 *. float_of_int peer))
        join.ts;
      List.iter
        (fun (name, keys) ->
          let e =
            match named name with
            | [ e ] -> e
            | es -> Alcotest.failf "peer %d: %d %s spans" peer (List.length es) name
          in
          Alcotest.(check bool)
            (Printf.sprintf "peer %d: %s is a child of join" peer name)
            true
            ((ctx e).parent_span_id = Some (ctx join).span_id);
          Alcotest.(check bool)
            (Printf.sprintf "peer %d: %s lies inside join" peer name)
            true
            (e.ts >= join.ts && e.ts +. e.dur <= join.ts +. join.dur +. 1e-9);
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (Printf.sprintf "peer %d: %s carries %s" peer name key)
                true (List.mem_assoc key e.args))
            keys)
        [
          ( "measure",
            [ "landmark"; "landmarks_pinged"; "rtt_ms"; "full_hops"; "recorded_hops";
              "probes_spent" ] );
          ("register", [ "landmark"; "routers" ]);
        ];
      let measure = List.find (fun (e : Span.event) -> e.name = "measure") evs in
      Alcotest.(check bool) (Printf.sprintf "peer %d: measurement takes time" peer) true
        (measure.dur > 0.0 && join.dur >= measure.dur))
    [ 0; 1; 2 ];
  (* Each query roots a trace of its own and lasts no sink-clock time. *)
  let queries = List.filter (fun (e : Span.event) -> e.name = "query") events in
  Alcotest.(check int) "one span per query" 2 (List.length queries);
  List.iter
    (fun (q : Span.event) ->
      Alcotest.(check bool) "query is a root" true ((ctx q).parent_span_id = None);
      Alcotest.(check bool) "query carries candidates" true (List.mem_assoc "candidates" q.args))
    queries

(* --- exporters -------------------------------------------------------- *)

let test_metrics_json () =
  let t = Trace.create () in
  Trace.incr t "join";
  List.iter (Trace.observe t "lat_ns") [ 100.0; 200.0; 300.0 ];
  (* An empty stream must serialize as nulls, not raise. *)
  Trace.reset (Trace.create ());
  let empty = Trace.create () in
  Trace.observe empty "never" 1.0;
  Trace.reset empty;
  let doc =
    Export.metrics_json
      ~meta:{ Export.git_rev = "abc"; date_utc = "2026-08-07T00:00:00Z"; seed = Some 1;
              backends = [ "tree" ]; ocaml_version = Sys.ocaml_version;
              word_size = Sys.word_size; domains = 2; extra = [ ("k", "5") ] }
      [ ("server", t); ("empty", empty) ]
  in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains needle doc))
    [
      "\"git_rev\": \"abc\"";
      "\"seed\": 1";
      "\"p90\"";
      "\"p99\"";
      "\"join\": 1";
      "\"buckets\"";
      "\"min\": null";
      "\"max\": null";
    ];
  let p50 =
    Option.bind (Json.parse doc |> Result.to_option)
      (Json.path [ "sections"; "server"; "stats"; "lat_ns"; "p50" ])
    |> Fun.flip Option.bind Json.to_float
  in
  Alcotest.(check (option (within_alpha 200.0))) "\"p50\": 200" (Some 200.0) p50;
  Alcotest.(check bool) "no nan literal" false (contains "nan" doc)

let test_prometheus () =
  let t = Trace.create () in
  Trace.add_count t "probe_packets" 42;
  List.iter (Trace.observe t "path.hops") [ 2.0; 4.0 ];
  let doc = Export.prometheus [ ("server", t) ] in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains needle doc))
    [
      "# TYPE nearby_server_probe_packets_total counter";
      "nearby_server_probe_packets_total 42";
      "# TYPE nearby_server_path_hops summary";
      "nearby_server_path_hops{quantile=\"0.5\"}";
      "nearby_server_path_hops_count 2";
    ]

let test_of_counters () =
  let t = Trace.of_counters [ ("sent", 9); ("dropped_loss", 2) ] in
  Alcotest.(check int) "value carried" 9 (Trace.counter t "sent");
  Alcotest.(check (list (pair string int))) "all present, sorted"
    [ ("dropped_loss", 2); ("sent", 9) ]
    (Trace.counters t);
  let doc = Export.prometheus [ ("transport", t) ] in
  Alcotest.(check bool) "exported as counters" true
    (contains "nearby_transport_sent_total 9" doc)

let test_prometheus_sanitized_exact () =
  (* Lock the exposition output byte for byte for a hostile name: the
     grammar allows [a-zA-Z0-9_] and no leading digit, in the prefix too. *)
  let t = Trace.create () in
  Trace.add_count t "9bad.name" 3;
  let doc = Export.prometheus ~prefix:"2nearby!" [ ("rpc-layer", t) ] in
  let expected =
    "# TYPE _2nearby__rpc_layer__9bad_name_total counter\n"
    ^ "_2nearby__rpc_layer__9bad_name_total 3\n"
  in
  Alcotest.(check string) "exposition locked" expected doc

let test_prometheus_empty_stream_nan () =
  let t = Trace.create () in
  Trace.observe t "lat" 1.0;
  Trace.reset t;
  let doc = Export.prometheus [ ("s", t) ] in
  (* An empty stream stays visible with NaN samples rather than vanishing. *)
  Alcotest.(check bool) "series present" true (contains "nearby_s_lat{quantile=\"0.5\"}" doc);
  Alcotest.(check bool) "NaN spelled for Prometheus" true (contains "NaN" doc);
  Alcotest.(check bool) "count still numeric" true (contains "nearby_s_lat_count 0" doc)

let test_metrics_json_timeseries_key () =
  let t = Trace.create () in
  Trace.incr t "x";
  let ts = Timeseries.create ~window_ms:100.0 () in
  Timeseries.observe ts "join_ms" ~now:10.0 5.0;
  Timeseries.observe ts "join_ms" ~now:250.0 7.0;
  let doc = Export.metrics_json ~timeseries:[ ("run", ts) ] [ ("server", t) ] in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains needle doc))
    [ "\"timeseries\""; "\"run\""; "\"window_ms\": 100"; "\"join_ms\""; "null" ];
  let no_ts = Export.metrics_json [ ("server", t) ] in
  Alcotest.(check bool) "key absent when no series given" false (contains "timeseries" no_ts)

(* --- instrumented registry ------------------------------------------- *)

let test_instrumented_registry () =
  let metrics = Trace.create () in
  let tick = ref 0.0 in
  let clock () =
    tick := !tick +. 500.0;
    !tick
  in
  let backend =
    Nearby.Instrumented_registry.wrap ~clock ~sink:(Trace.stream_ref metrics)
      (module Nearby.Path_tree)
  in
  let lmk = 99 in
  let reg = Nearby.Registry_intf.create backend ~landmark:lmk in
  Nearby.Registry_intf.insert reg ~peer:0 ~routers:[| 1; 5; lmk |];
  Nearby.Registry_intf.insert reg ~peer:1 ~routers:[| 2; 5; lmk |];
  let answer = Nearby.Registry_intf.query_member reg ~peer:0 ~k:1 in
  Alcotest.(check (list (pair int int))) "answers pass through" [ (1, 2) ] answer;
  Nearby.Registry_intf.remove reg 1;
  let summary name = Option.get (Trace.summary metrics name) in
  let ins = summary Nearby.Instrumented_registry.insert_ns in
  Alcotest.(check int) "two timed inserts" 2 ins.Trace.count;
  Alcotest.(check (float 1e-9)) "per-op delta from injected clock" 500.0 ins.Trace.p50;
  Alcotest.(check int) "one timed query" 1 (summary Nearby.Instrumented_registry.query_ns).Trace.count;
  Alcotest.(check int) "one timed remove" 1 (summary Nearby.Instrumented_registry.remove_ns).Trace.count;
  Alcotest.(check (float 1e-9))
    "candidates recorded" 1.0
    (summary Nearby.Instrumented_registry.query_candidates).Trace.p50;
  (* Labeled only: each op lands once, in its {backend="tree"} series. *)
  let labeled = Simkit.Metrics.create () in
  let sink name = Simkit.Metrics.stream_ref labeled name ~labels:[ ("backend", "tree") ] in
  let backend = Nearby.Instrumented_registry.wrap ~clock ~sink (module Nearby.Path_tree) in
  let reg = Nearby.Registry_intf.create backend ~landmark:lmk in
  Nearby.Registry_intf.insert reg ~peer:0 ~routers:[| 1; 5; lmk |];
  Nearby.Registry_intf.insert reg ~peer:1 ~routers:[| 2; 5; lmk |];
  ignore (Nearby.Registry_intf.query_member reg ~peer:0 ~k:1);
  Nearby.Registry_intf.remove reg 1;
  let count name =
    match Simkit.Metrics.summary labeled name ~labels:[ ("backend", "tree") ] with
    | Some s -> s.Trace.count
    | None -> 0
  in
  List.iter
    (fun (name, expected) -> Alcotest.(check int) ("labeled " ^ name) expected (count name))
    Nearby.Instrumented_registry.
      [ (insert_ns, 2); (query_ns, 1); (remove_ns, 1); (query_candidates, 1) ];
  Alcotest.(check int) "one series per stream" 4 (List.length (Simkit.Metrics.series labeled))

let test_wrap_disabled_is_identity () =
  let backend = (module Nearby.Path_tree : Nearby.Registry_intf.S) in
  let wrapped = Nearby.Instrumented_registry.wrap backend in
  Alcotest.(check bool) "physically the same module" true (wrapped == backend)

let suite =
  ( "trace",
    [
      Alcotest.test_case "counters" `Quick test_counters;
      Alcotest.test_case "counter_ref survives reset" `Quick test_counter_ref_survives_reset;
      Alcotest.test_case "stat handle survives reset" `Quick test_stat_handle_survives_reset;
      Alcotest.test_case "observe/stat" `Quick test_observe_stat;
      Alcotest.test_case "summary small stream" `Quick test_summary_small_stream;
      Alcotest.test_case "stats min/max opt" `Quick test_min_max_opt;
      Alcotest.test_case "quantiles uniform" `Quick test_quantiles_uniform;
      Alcotest.test_case "quantiles heavy tail" `Quick test_quantiles_heavy_tail;
      Alcotest.test_case "stream reset in place" `Quick test_stream_reset_in_place;
      Alcotest.test_case "quantile clear" `Quick test_quantile_clear;
      Alcotest.test_case "span noop" `Quick test_span_noop;
      Alcotest.test_case "span buffer + jsonl" `Quick test_span_buffer;
      Alcotest.test_case "server join/query spans" `Quick test_server_spans;
      Alcotest.test_case "metrics json export" `Quick test_metrics_json;
      Alcotest.test_case "prometheus export" `Quick test_prometheus;
      Alcotest.test_case "of_counters adapter" `Quick test_of_counters;
      Alcotest.test_case "prometheus sanitized exact" `Quick test_prometheus_sanitized_exact;
      Alcotest.test_case "prometheus empty stream" `Quick test_prometheus_empty_stream_nan;
      Alcotest.test_case "metrics json timeseries key" `Quick test_metrics_json_timeseries_key;
      Alcotest.test_case "instrumented registry timing" `Quick test_instrumented_registry;
      Alcotest.test_case "wrap disabled = identity" `Quick test_wrap_disabled_is_identity;
    ] )
