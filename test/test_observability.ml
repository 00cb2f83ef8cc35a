(* End-to-end causal tracing: span contexts and scoped spans, tail
   exemplars and their exports, offline critical-path analysis, registry
   introspection across every backend, and the cross-failover guarantee
   that one join stays one trace. *)

open Simkit

let contains needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- span contexts ----------------------------------------------------- *)

let test_context_allocation () =
  let s = Span.buffer () in
  let root = Span.context s () in
  Alcotest.(check int) "root trace id = own span id" root.Span.span_id root.Span.trace_id;
  Alcotest.(check bool) "root has no parent" true (root.Span.parent_span_id = None);
  let child = Span.context s ~parent:root () in
  Alcotest.(check int) "child inherits trace" root.Span.trace_id child.Span.trace_id;
  Alcotest.(check bool) "child parented" true (child.Span.parent_span_id = Some root.Span.span_id);
  Alcotest.(check bool) "ids distinct" true (child.Span.span_id <> root.Span.span_id);
  let other_root = Span.context s () in
  Alcotest.(check bool) "new root = new trace" true
    (other_root.Span.trace_id <> root.Span.trace_id);
  Alcotest.(check bool) "noop hands out null context" true
    (Span.context Span.noop () = Span.null_context)

let test_ambient_context () =
  let s = Span.buffer () in
  let outer = Span.context s () in
  let inner = Span.context s ~parent:outer () in
  Alcotest.(check bool) "no ambient outside scopes" true (Span.current s = None);
  Span.with_context s outer (fun () ->
      Alcotest.(check bool) "outer ambient" true (Span.current s = Some outer);
      Span.with_context s inner (fun () ->
          Alcotest.(check bool) "innermost wins" true (Span.current s = Some inner));
      Alcotest.(check bool) "outer restored" true (Span.current s = Some outer));
  Alcotest.(check bool) "empty after scopes" true (Span.current s = None);
  (* The scope must unwind on exceptions too. *)
  (try Span.with_context s outer (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (Span.current s = None)

let test_with_span_closes_on_exception () =
  let s = Span.buffer () in
  (match Span.with_span s ~name:"op" [] (fun _ -> failwith "boom") with
  | _ -> Alcotest.fail "expected the exception to propagate"
  | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m);
  match Span.events s with
  | [ e ] ->
      Alcotest.(check string) "span still emitted" "op" e.Span.name;
      Alcotest.(check bool) "flagged as error" true (List.mem_assoc "error" e.Span.args)
  | evs -> Alcotest.failf "expected exactly one event, got %d" (List.length evs)

let test_finish_idempotent () =
  let s = Span.buffer () in
  let now = ref 10.0 in
  Span.set_clock s (fun () -> !now);
  let span = Span.start_span s ~name:"attempt" [] in
  now := 25.0;
  Span.finish span;
  now := 99.0;
  Span.finish span;
  match Span.events s with
  | [ e ] ->
      Alcotest.(check (float 1e-9)) "starts on the installed clock" 10.0 e.Span.ts;
      Alcotest.(check (float 1e-9)) "first close wins" 15.0 e.Span.dur
  | evs -> Alcotest.failf "expected exactly one event, got %d" (List.length evs)

(* --- tail exemplars ----------------------------------------------------- *)

let test_exemplars () =
  let t = Trace.create () in
  Trace.observe ~trace_id:7 t "lat" 2.95;
  Trace.observe ~trace_id:9 t "lat" 3.0 (* same sketch bucket: later sample wins *);
  Trace.observe ~trace_id:11 t "lat" 1000.0;
  Trace.observe t "lat" 2000.0 (* untagged: not an exemplar *);
  Trace.observe ~trace_id:0 t "lat" 4000.0 (* null context: ignored *);
  (match Trace.exemplars t "lat" with
  | [ a; b ] ->
      let bucket_of v = Prelude.Sketch.bucket_index (Prelude.Sketch.create ()) v in
      Alcotest.(check int) "low bucket" (bucket_of 3.0) a.Trace.bucket;
      Alcotest.(check int) "latest sample wins the bucket" 9 a.Trace.trace_id;
      Alcotest.(check int) "high bucket" (bucket_of 1000.0) b.Trace.bucket;
      Alcotest.(check int) "tail trace id" 11 b.Trace.trace_id
  | l -> Alcotest.failf "expected 2 exemplars, got %d" (List.length l));
  (match Trace.top_exemplar t "lat" with
  | Some e -> Alcotest.(check int) "top = highest bucket" 11 e.Trace.trace_id
  | None -> Alcotest.fail "missing top exemplar");
  Alcotest.(check bool) "untagged stream has none" true (Trace.exemplars t "nope" = [])

let test_exemplar_export () =
  let t = Trace.create () in
  Trace.observe ~trace_id:42 t "join_ms" 100.0;
  List.iteri
    (fun i v -> Trace.observe ~trace_id:(100 + i) t "join_ms" v)
    [ 0.0; 3.0; 250.0; 250.5; 7.0; 1e4 ];
  List.iter (Trace.observe t "join_ms") [ 1.0; 2.0; 300.0 ];
  Trace.observe t "plain" 5.0;
  let doc = Export.metrics_json [ ("run", t) ] in
  Alcotest.(check bool) "json exemplars present" true (contains "\"exemplars\"" doc);
  Alcotest.(check bool) "json trace id" true (contains "\"trace_id\": 42" doc);
  let prom = Export.prometheus [ ("run", t) ] in
  Alcotest.(check bool) "histogram series" true
    (contains "# TYPE nearby_run_join_ms_hist histogram" prom);
  Alcotest.(check bool) "openmetrics exemplar" true (contains "# {trace_id=\"42\"}" prom);
  Alcotest.(check bool) "+Inf bucket" true (contains "le=\"+Inf\"" prom);
  (* Streams without exemplars must not grow a histogram block. *)
  Alcotest.(check bool) "plain stream unchanged" false (contains "plain_hist" prom);
  (* The block is the sketch's buckets: cumulative counts never decrease,
     +Inf equals the stream count, and each exemplar sits on the line of
     the bucket its value fell in. *)
  let bucket_lines =
    String.split_on_char '\n' prom
    |> List.filter (String.starts_with ~prefix:"nearby_run_join_ms_hist_bucket{")
  in
  let parse line =
    Scanf.sscanf line "nearby_run_join_ms_hist_bucket{le=%S} %d%s@\n" (fun le n rest ->
        let exemplar =
          if rest = "" then None
          else Scanf.sscanf rest " # {trace_id=%S} %f" (fun id v -> Some (int_of_string id, v))
        in
        (le, n, exemplar))
  in
  let rows = List.map parse bucket_lines in
  let rec non_decreasing = function
    | (_, a, _) :: ((_, b, _) :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative counts never decrease" true (non_decreasing rows);
  (match List.rev rows with
  | ("+Inf", n, None) :: _ -> Alcotest.(check int) "+Inf = stream count" 10 n
  | _ -> Alcotest.fail "+Inf bucket is not last");
  let sketch = Prelude.Sketch.create () in
  List.iter (Prelude.Sketch.add sketch) [ 100.0; 0.0; 3.0; 250.0; 250.5; 7.0; 1e4; 1.0; 2.0; 300.0 ];
  Alcotest.(check (list string)) "one line per sketch bucket, at its upper edge"
    (List.map (fun (_, le, _) -> Printf.sprintf "%g" le) (Prelude.Sketch.buckets sketch) @ [ "+Inf" ])
    (List.map (fun (le, _, _) -> le) rows);
  let exemplars = Trace.exemplars t "join_ms" in
  Alcotest.(check int) "one exemplar line per tagged bucket" (List.length exemplars)
    (List.length (List.filter (fun (_, _, e) -> e <> None) rows));
  (* An exemplar's value lies in (previous edge, own edge]; edges print
     with six significant digits, hence the slack. *)
  ignore
    (List.fold_left
       (fun prev (le, _, e) ->
         let upper = float_of_string le in
         (match e with
         | None -> ()
         | Some (id, v) ->
             Alcotest.(check bool)
               (Printf.sprintf "exemplar %d (%g) on the line of its bucket (%g, %s]" id v prev le)
               true
               (v > prev *. (1.0 -. 1e-5) && v <= upper *. (1.0 +. 1e-5)));
         upper)
       neg_infinity rows);
  (* The document as a whole must stay parseable JSON. *)
  match Json.parse doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics json no longer parses: %s" e

(* --- JSON string building round-trips ----------------------------------- *)

let test_json_str_roundtrip () =
  let nasty =
    [ ""; "plain"; "with \"quotes\""; "back\\slash"; "tab\tnewline\ncr\r"; "ctrl\x01\x1f";
      "unicode \xc3\xa9"; "{\"not\": \"json\"}" ]
  in
  List.iter
    (fun s ->
      match Json.parse (Json_str.quote s) with
      | Ok j -> (
          match Json.to_string j with
          | Some s' -> Alcotest.(check string) "string survives quote+parse" s s'
          | None -> Alcotest.failf "quote %S parsed to a non-string" s)
      | Error e -> Alcotest.failf "quote %S does not parse: %s" s e)
    nasty;
  (* obj/arr assemble documents Json.parse accepts, keys escaped. *)
  let doc =
    Json_str.obj
      [ ("a\"b", Json_str.number 1.5); ("list", Json_str.arr [ "1"; "2" ]);
        ("nan", Json_str.number Float.nan) ]
  in
  match Json.parse doc with
  | Error e -> Alcotest.failf "obj output does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option (float 1e-9))) "escaped key readable" (Some 1.5)
        (Option.bind (Json.member "a\"b" j) Json.to_float);
      Alcotest.(check bool) "nan rendered null" true (Json.member "nan" j <> None)

(* --- critical-path analysis --------------------------------------------- *)

(* A hand-built tree exercising the clamp and self-time rules:
     root [0, 100]
       a [10, 40]
       b [30, 90]
         c [35, 95]  (outlives b: clamped at 90)
   Backwards walk: root self (90,100], b's subtree bounded at 90 where c
   owns (35,90] and b keeps (30,35], a owns (10,40] up to b's start at 30 so
   (10,30], root self (0,10].  Total = 100. *)
let test_critical_path () =
  let s = Span.buffer () in
  let root = Span.context s () in
  let a = Span.context s ~parent:root () in
  let b = Span.context s ~parent:root () in
  let c = Span.context s ~parent:b () in
  Span.emit s ~name:"join" ~ts:0.0 ~dur:100.0 ~ctx:root [];
  Span.emit s ~name:"measure" ~ts:10.0 ~dur:30.0 ~ctx:a [];
  Span.emit s ~name:"rpc_attempt" ~ts:30.0 ~dur:60.0 ~ctx:b [];
  Span.emit s ~name:"replicate" ~ts:35.0 ~dur:60.0 ~ctx:c [];
  let spans, untraced = Trace_analysis.of_jsonl_string (Span.to_jsonl s) in
  Alcotest.(check int) "all events carry causal ids" 0 untraced;
  match Trace_analysis.traces spans with
  | [ t ] ->
      Alcotest.(check int) "tree holds all spans" 4 t.Trace_analysis.span_count;
      Alcotest.(check int) "no orphans" 0 t.Trace_analysis.orphans;
      let segs = Trace_analysis.critical_path t in
      let total =
        List.fold_left
          (fun acc (seg : Trace_analysis.segment) ->
            acc +. (seg.Trace_analysis.to_ms -. seg.Trace_analysis.from_ms))
          0.0 segs
      in
      Alcotest.(check (float 1e-6)) "segments cover the root duration" 100.0 total;
      let ms kind =
        List.fold_left
          (fun acc (b : Trace_analysis.breakdown) ->
            if b.Trace_analysis.kind = kind then acc +. b.Trace_analysis.total_ms else acc)
          0.0
          (Trace_analysis.by_kind segs)
      in
      Alcotest.(check (float 1e-6)) "clamped leaf" 55.0 (ms "replicate");
      Alcotest.(check (float 1e-6)) "parent keeps pre-child time" 5.0 (ms "rpc_attempt");
      Alcotest.(check (float 1e-6)) "sibling up to successor start" 20.0 (ms "measure");
      Alcotest.(check (float 1e-6)) "root self time" 20.0 (ms "join");
      (* A second root kind gets quantiles of its own: three query traces
         of 2, 4 and 6 ms beside the 100 ms join. *)
      List.iter
        (fun dur -> Span.emit s ~name:"query" ~ts:200.0 ~dur ~ctx:(Span.context s ()) [])
        [ 2.0; 4.0; 6.0 ];
      let spans, untraced = Trace_analysis.of_jsonl_string (Span.to_jsonl s) in
      let report = Trace_analysis.analyze ~untraced spans in
      Alcotest.(check (list (pair string (list (float 1e-6)))))
        "per-kind root quantiles, most common first"
        [ ("query", [ 3.0; 4.0; 6.0; 6.0 ]); ("join", [ 1.0; 100.0; 100.0; 100.0 ]) ]
        (List.map
           (fun (k : Trace_analysis.root_stats) ->
             ( k.Trace_analysis.root_name,
               [ float_of_int k.Trace_analysis.roots; k.Trace_analysis.p50; k.Trace_analysis.p99;
                 k.Trace_analysis.max ] ))
           report.Trace_analysis.root_kinds);
      let text = Trace_analysis.report_to_string report in
      Alcotest.(check bool) "report renders breakdown" true (contains "rpc_attempt" text);
      List.iter
        (fun line -> Alcotest.(check bool) line true (contains line text))
        [
          {|root span "query": p50=4.0ms  p99=6.0ms  max=6.0ms  n=3|};
          {|root span "join": p50=100.0ms  p99=100.0ms  max=100.0ms  n=1|};
        ]
  | ts -> Alcotest.failf "expected 1 trace, got %d" (List.length ts)

let test_multiple_roots_kept_longest () =
  let s = Span.buffer () in
  let root = Span.context s () in
  (* Two parentless spans in one trace id: the longer one must win. *)
  Span.emit s ~name:"short" ~ts:0.0 ~dur:5.0
    ~ctx:{ root with Span.span_id = root.Span.span_id + 1000 }
    [];
  Span.emit s ~name:"long" ~ts:0.0 ~dur:50.0 ~ctx:root [];
  let spans, _ = Trace_analysis.of_jsonl_string (Span.to_jsonl s) in
  match Trace_analysis.traces spans with
  | [ t ] ->
      Alcotest.(check string) "longest parentless span is root" "long"
        t.Trace_analysis.root.Trace_analysis.span.Trace_analysis.name;
      Alcotest.(check int) "the other counts as orphan" 1 t.Trace_analysis.orphans
  | ts -> Alcotest.failf "expected 1 trace, got %d" (List.length ts)

(* --- registry introspection --------------------------------------------- *)

let lmk = 99

let paths =
  (* Router 5 is shared by three peers, router 1 by two: known occupancy. *)
  [ (0, [| 1; 5; lmk |]); (1, [| 2; 5; lmk |]); (2, [| 1; 5; lmk |]); (3, [| 7; lmk |]) ]

let test_introspect_all_backends () =
  List.iter
    (fun spec ->
      let name = Eval.Backends.to_string spec in
      let reg = Nearby.Registry_intf.create (Eval.Backends.backend spec) ~landmark:lmk in
      List.iter (fun (peer, routers) -> Nearby.Registry_intf.insert reg ~peer ~routers) paths;
      let i = Nearby.Registry_intf.introspect reg in
      Alcotest.(check int) (name ^ ": members") 4 i.Nearby.Registry_intf.members;
      Alcotest.(check bool) (name ^ ": routers known") true (i.Nearby.Registry_intf.routers > 0);
      Alcotest.(check bool)
        (name ^ ": footprint positive") true
        (i.Nearby.Registry_intf.approx_bytes > 0);
      Alcotest.(check int)
        (name ^ ": occupancy totals the buckets")
        i.Nearby.Registry_intf.routers
        (Prelude.Histogram.total i.Nearby.Registry_intf.occupancy);
      (match i.Nearby.Registry_intf.hot_routers with
      | (hot, size) :: rest ->
          (* Every path ends at the landmark, so its bucket holds everyone. *)
          Alcotest.(check int) (name ^ ": hottest router is the landmark") lmk hot;
          Alcotest.(check int) (name ^ ": landmark bucket holds all peers") 4 size;
          List.fold_left
            (fun prev (_, s) ->
              Alcotest.(check bool) (name ^ ": hot list descending") true (s <= prev);
              s)
            size rest
          |> ignore
      | [] -> Alcotest.fail (name ^ ": empty hot list"));
      Alcotest.(check bool)
        (name ^ ": top-k bounded") true
        (List.length i.Nearby.Registry_intf.hot_routers <= Nearby.Registry_intf.hot_router_k);
      match Json.parse (Nearby.Registry_intf.introspection_json i) with
      | Ok j ->
          Alcotest.(check (option (float 1e-9)))
            (name ^ ": json members")
            (Some 4.0)
            (Option.bind (Json.member "members" j) Json.to_float)
      | Error e -> Alcotest.failf "%s: introspection json does not parse: %s" name e)
    Eval.Backends.all

let test_merge_introspections () =
  let part sizes =
    Nearby.Registry_intf.introspection_of_buckets ~members:(List.length sizes) ~approx_bytes:64
      (fun f -> List.iter (fun (r, s) -> f r s) sizes)
  in
  let a = part [ (1, 4); (2, 1) ] in
  let b = part [ (1, 3); (9, 2) ] in
  let m = Nearby.Registry_intf.merge_introspections [ a; b ] in
  Alcotest.(check int) "members add" 4 m.Nearby.Registry_intf.members;
  Alcotest.(check int) "bucket counts add" 4 m.Nearby.Registry_intf.routers;
  Alcotest.(check int) "occupancy merged bucket-wise" 4
    (Prelude.Histogram.total m.Nearby.Registry_intf.occupancy);
  Alcotest.(check int) "bytes add" 128 m.Nearby.Registry_intf.approx_bytes;
  (match m.Nearby.Registry_intf.hot_routers with
  | (r, s) :: _ ->
      Alcotest.(check int) "split router re-ranked by summed size" 1 r;
      Alcotest.(check int) "sizes summed across parts" 7 s
  | [] -> Alcotest.fail "empty merged hot list");
  let empty = Nearby.Registry_intf.merge_introspections [] in
  Alcotest.(check int) "empty merge" 0 empty.Nearby.Registry_intf.members

(* --- instrumented registry causality ------------------------------------ *)

let test_instrumented_spans_parent_on_ambient () =
  let metrics = Trace.create () in
  let spans = Span.buffer () in
  let backend =
    Nearby.Instrumented_registry.wrap ~spans ~metrics (module Nearby.Path_tree)
  in
  let reg = Nearby.Registry_intf.create backend ~landmark:lmk in
  let outer = Span.context spans () in
  Span.with_context spans outer (fun () ->
      Nearby.Registry_intf.insert reg ~peer:0 ~routers:[| 1; 5; lmk |]);
  (match Span.events spans with
  | [ e ] -> (
      Alcotest.(check string) "op span emitted" "registry_insert" e.Span.name;
      match e.Span.ctx with
      | Some ctx ->
          Alcotest.(check int) "same trace as ambient" outer.Span.trace_id ctx.Span.trace_id;
          Alcotest.(check bool) "parented under ambient" true
            (ctx.Span.parent_span_id = Some outer.Span.span_id)
      | None -> Alcotest.fail "op span lost its context")
  | evs -> Alcotest.failf "expected one op span, got %d" (List.length evs));
  (* The latency sample must carry the ambient trace id as its exemplar. *)
  match Trace.top_exemplar metrics Nearby.Instrumented_registry.insert_ns with
  | Some e -> Alcotest.(check int) "exemplar cross-link" outer.Span.trace_id e.Trace.trace_id
  | None -> Alcotest.fail "insert sample not tagged"

(* --- cross-failover causality ------------------------------------------- *)

let test_failover_joins_stay_one_trace () =
  let spans = Span.buffer () in
  (* The quick config is big enough that some arrivals land while the
     primary is down, forcing retried attempts against other replicas. *)
  let config =
    { Eval.Resilience_exp.quick_config with Eval.Resilience_exp.scenario = "crash-primary" }
  in
  let result, _ = Eval.Resilience_exp.run_instrumented ~spans config in
  Alcotest.(check int) "every join completed" config.Eval.Resilience_exp.peers result.completed;
  Alcotest.(check bool) "live replicas consistent" true result.consistent;
  Alcotest.(check bool) "some replica is live" true (result.live_peer_counts <> []);
  Alcotest.(check (list int)) "every live replica holds every join"
    (List.map (fun _ -> result.joins) result.live_peer_counts)
    result.live_peer_counts;
  let spans', untraced = Trace_analysis.of_jsonl_string (Span.to_jsonl spans) in
  Alcotest.(check int) "no untraced events" 0 untraced;
  (* At least one join must have failed over between replicas — and its
     attempts against different targets must still share one trace. *)
  let by_trace = Hashtbl.create 64 in
  List.iter
    (fun (e : Span.event) ->
      if e.Span.name = "rpc_attempt" then begin
        let trace_id = (Option.get e.Span.ctx).Span.trace_id in
        let arg name = List.assoc_opt name e.Span.args in
        let attempt = (e.Span.ts, arg "target", arg "outcome") in
        Hashtbl.replace by_trace trace_id
          (attempt :: Option.value ~default:[] (Hashtbl.find_opt by_trace trace_id))
      end)
    (Span.events spans);
  let failovers =
    Hashtbl.fold
      (fun _ atts acc ->
        let targets = List.sort_uniq compare (List.filter_map (fun (_, t, _) -> t) atts) in
        if List.length targets >= 2 then
          List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) atts :: acc
        else acc)
      by_trace []
  in
  Alcotest.(check bool)
    (Printf.sprintf "retried joins keep one trace id (%d found)" (List.length failovers))
    true (failovers <> []);
  let ok = Some (Span.Str "ok") in
  let rec failed_then_ok = function
    | (_, _, outcome) :: later ->
        (outcome <> ok && List.exists (fun (_, _, o) -> o = ok) later) || failed_then_ok later
    | [] -> false
  in
  Alcotest.(check bool) "a failed-over join fails an attempt, then succeeds" true
    (List.exists failed_then_ok failovers);
  (* Every tree must reconstruct rooted at a join (or a sync round). *)
  List.iter
    (fun (t : Trace_analysis.trace) ->
      let root = t.Trace_analysis.root.Trace_analysis.span.Trace_analysis.name in
      Alcotest.(check bool)
        (Printf.sprintf "trace #%d rooted at a request (%s)" t.Trace_analysis.trace_id root)
        true
        (root = "join" || root = "sync_round"))
    (Trace_analysis.traces spans')

(* The critical-path report of a replicated run whose traces include a
   continued join (a root "join" holding a "rest" and the attempts of
   two calls): no event lacks its causal ids, the breakdown by span kind
   is not empty, and every root's duration is attributed in full. *)
let test_critical_path_of_continued_joins () =
  let spans = Span.buffer () in
  let config =
    {
      Eval.Cluster_run.routers = 800;
      peers = 120;
      k = 5;
      replicas = 3;
      arrival_window_ms = 8_000.0;
      sync_period_ms = 2_000.0;
      drain_ms = 0.0;
      seed = 1;
    }
  in
  let run = Eval.Cluster_run.create ~spans config in
  Eval.Cluster_run.arrivals run;
  Eval.Cluster_run.settle run;
  let spans', untraced = Trace_analysis.of_jsonl_string (Span.to_jsonl spans) in
  Alcotest.(check int) "untraced events: 0" 0 untraced;
  let traces = Trace_analysis.traces spans' in
  let continued (t : Trace_analysis.trace) =
    let root = t.root in
    let count name =
      List.length
        (List.filter (fun (c : Trace_analysis.tree) -> c.span.Trace_analysis.name = name) root.children)
    in
    root.span.Trace_analysis.name = "join" && count "rest" = 1 && count "rpc_attempt" >= 2
  in
  Alcotest.(check bool) "a join root with two RPC rounds" true (List.exists continued traces);
  List.iter
    (fun (t : Trace_analysis.trace) ->
      let segs = Trace_analysis.critical_path t in
      let total = List.fold_left (fun acc (s : Trace_analysis.segment) -> acc +. (s.to_ms -. s.from_ms)) 0.0 segs in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "trace #%d: the whole root duration attributed" t.trace_id)
        t.root.span.Trace_analysis.dur total)
    traces;
  let report = Trace_analysis.analyze ~untraced spans' in
  Alcotest.(check bool) "non-empty breakdown by span kind" true (report.overall <> []);
  let text = Trace_analysis.report_to_string report in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec at i = i + n <= h && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "report has the breakdown heading" true
    (contains "critical path by span kind");
  Alcotest.(check bool) "report states untraced events: 0" true (contains "untraced events: 0");
  Alcotest.(check bool) "a breakdown row with a share" true (contains "%")

(* --- span reconciliation ------------------------------------------------ *)

(* One span clock: in a traced crash-primary run every peer has exactly one
   "join" and one "measure" span, and every span lies within its parent's
   [ts, ts + dur] up to 1 µs.  Replication is the one exception by design:
   it is delivered after the reply, so a "replicate" span may outlive the
   attempt that sent it. *)
let test_spans_reconcile () =
  let spans = Span.buffer () in
  let config =
    { Eval.Resilience_exp.quick_config with Eval.Resilience_exp.scenario = "crash-primary" }
  in
  ignore (Eval.Resilience_exp.run_instrumented ~spans config);
  let events = Span.events spans in
  let peers = List.init config.Eval.Resilience_exp.peers Fun.id in
  List.iter
    (fun name ->
      let tids =
        List.filter_map
          (fun (e : Span.event) -> if e.Span.name = name then Some e.Span.tid else None)
          events
      in
      Alcotest.(check (list int)) ("one " ^ name ^ " span per peer") peers (List.sort compare tids))
    [ "join"; "measure" ];
  let by_id = Hashtbl.create 1024 in
  List.iter
    (fun (e : Span.event) ->
      match e.Span.ctx with
      | Some c -> Hashtbl.replace by_id c.Span.span_id e
      | None -> Alcotest.failf "untraced %s event" e.Span.name)
    events;
  let slack = 1e-3 in
  let outside =
    List.filter
      (fun (e : Span.event) ->
        e.Span.name <> "replicate"
        &&
        match (Option.get e.Span.ctx).Span.parent_span_id with
        | None -> false
        | Some p ->
            let parent = Hashtbl.find by_id p in
            e.Span.ts < parent.Span.ts -. slack
            || e.Span.ts +. e.Span.dur > parent.Span.ts +. parent.Span.dur +. slack)
      events
  in
  Alcotest.(check (list string)) "spans outside their parent" []
    (List.map (fun (e : Span.event) -> e.Span.name) outside)

(* --- The registry smoke: `nearby_sim registry --quick --backend tree
   --audit-rate 0.1 --slo ... --metrics-out --prom-out --trace-out` ---

   The snapshot, exposition and trace that command writes, from the
   library function it calls. *)
let test_registry_smoke () =
  let r =
    Eval.Registry_run.run
      {
        Eval.Registry_run.quick_config with
        audit_rate = 0.1;
        timeseries = true;
        traced = true;
        metered = true;
      }
      [ Eval.Backends.Tree ]
  in
  let doc = Json.parse_exn (Eval.Registry_run.metrics_json r) in
  let keys = Json.keys doc in
  List.iter
    (fun key -> Alcotest.(check bool) ("snapshot has " ^ key) true (List.mem key keys))
    [ "meta"; "sections" ];
  let section prefix =
    match Json.member "sections" doc with
    | Some (Json.Obj sections) -> (
        match List.find_opt (fun (k, _) -> String.starts_with ~prefix k) sections with
        | Some (_, v) -> v
        | None -> Alcotest.failf "no %s section" prefix)
    | _ -> Alcotest.fail "sections is not an object"
  in
  let number v path =
    match Option.bind (Json.path path v) Json.to_float with
    | Some x -> x
    | None -> Alcotest.failf "%s is not a number" (String.concat "." path)
  in
  let registry = section "registry:" in
  List.iter
    (fun stream ->
      List.iter (fun q -> ignore (number registry [ "stats"; stream; q ])) [ "p50"; "p90"; "p99" ])
    [ "registry_insert_ns"; "registry_query_ns" ];
  let audit = section "audit:" in
  Alcotest.(check bool) "audited replies" true (number audit [ "counters"; "audit_samples" ] > 0.0);
  Alcotest.(check bool) "audit recall stat" true
    (Json.path [ "stats"; "audit_recall_at_k" ] audit <> None);
  let series =
    match Json.path [ "timeseries"; "tree"; "series" ] doc with
    | Some v -> Json.keys v
    | None -> Alcotest.fail "no tree timeseries"
  in
  List.iter
    (fun name -> Alcotest.(check bool) ("series " ^ name) true (List.mem name series))
    [ "audit_recall_at_k"; "audit_stretch" ];
  Alcotest.(check bool) "prometheus audit series" true
    (contains "nearby_audit_tree_audit_recall_at_k" (Eval.Registry_run.prometheus r));
  let events =
    String.split_on_char '\n' (Eval.Registry_run.trace_jsonl r)
    |> List.filter (fun l -> l <> "")
    |> List.map Json.parse_exn
  in
  Alcotest.(check bool) "trace not empty" true (events <> []);
  let field name e =
    match Json.member name e with
    | Some (Json.String s) -> s
    | Some (Json.Number x) -> Printf.sprintf "%g" x
    | _ -> Alcotest.failf "event without %s" name
  in
  let names = List.sort_uniq compare (List.map (field "name") events) in
  List.iter
    (fun name -> Alcotest.(check bool) ("span " ^ name) true (List.mem name names))
    [ "join"; "measure"; "register"; "query" ];
  (* One join span per registered peer, each its own thread. *)
  let joins = List.filter (fun e -> field "name" e = "join") events in
  let peers = Eval.Registry_run.quick_config.peers in
  Alcotest.(check int) "join spans" peers (List.length joins);
  Alcotest.(check int) "join threads" peers
    (List.length (List.sort_uniq compare (List.map (field "tid") joins)))

(* A tree run among the specs gives the reference answers, traced, metered
   and audited or not: they equal an untraced tree run's, which a run
   without the tree makes for its reference. *)
let test_registry_reference_from_tree_run () =
  let open Eval.Registry_run in
  let untraced = (run quick_config [ Eval.Backends.Naive ]).reference in
  List.iter
    (fun (name, config) ->
      let r = run config [ Eval.Backends.Tree ] in
      Alcotest.(check (array (list (pair int int))))
        (name ^ ": reference") untraced r.reference;
      Alcotest.(check bool) (name ^ ": the tree run's answers") true
        ((List.hd r.runs).answers == r.reference))
    [
      ("plain", quick_config);
      ( "traced, metered and audited",
        { quick_config with audit_rate = 0.1; timeseries = true; traced = true; metered = true } );
    ]

let suite =
  ( "observability",
    [
      Alcotest.test_case "context allocation" `Quick test_context_allocation;
      Alcotest.test_case "ambient context scoping" `Quick test_ambient_context;
      Alcotest.test_case "with_span closes on exception" `Quick test_with_span_closes_on_exception;
      Alcotest.test_case "finish idempotent" `Quick test_finish_idempotent;
      Alcotest.test_case "tail exemplars" `Quick test_exemplars;
      Alcotest.test_case "exemplar export" `Quick test_exemplar_export;
      Alcotest.test_case "json_str round-trips" `Quick test_json_str_roundtrip;
      Alcotest.test_case "critical path" `Quick test_critical_path;
      Alcotest.test_case "multiple roots" `Quick test_multiple_roots_kept_longest;
      Alcotest.test_case "introspect all backends" `Quick test_introspect_all_backends;
      Alcotest.test_case "merge introspections" `Quick test_merge_introspections;
      Alcotest.test_case "instrumented spans parent on ambient" `Quick
        test_instrumented_spans_parent_on_ambient;
      Alcotest.test_case "failover joins stay one trace" `Quick
        test_failover_joins_stay_one_trace;
      Alcotest.test_case "spans reconcile with their parents" `Quick test_spans_reconcile;
      Alcotest.test_case "critical path of continued joins" `Quick
        test_critical_path_of_continued_joins;
      Alcotest.test_case "registry smoke: snapshot, exposition and trace" `Quick
        test_registry_smoke;
      Alcotest.test_case "registry reference from the tree run" `Quick
        test_registry_reference_from_tree_run;
    ] )
