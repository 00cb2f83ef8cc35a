(* Labeled metrics: series identity, cardinality bound, merging, the
   labeled exporters, and the fleet-wide acceptance scenario. *)

open Simkit

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub haystack i m = needle || scan (i + 1)) in
  scan 0

let check_has label text sub =
  Alcotest.(check bool) (Printf.sprintf "%s: %s" label sub) true (contains text sub)

let test_canonical_key () =
  Alcotest.(check string) "bare name" "join_ms" (Metrics.canonical_key "join_ms" []);
  Alcotest.(check string) "labels sorted"
    "join_ms{replica=\"2\",zone=\"eu\"}"
    (Metrics.canonical_key "join_ms" [ ("zone", "eu"); ("replica", "2") ]);
  Alcotest.(check string) "values escaped"
    "m{k=\"a\\\"b\\\\c\"}"
    (Metrics.canonical_key "m" [ ("k", "a\"b\\c") ]);
  (match Metrics.canonical_key "m" [ ("k", "1"); ("k", "2") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate label keys accepted")

let test_label_order_insensitive () =
  let m = Metrics.create () in
  Metrics.incr m "hits" ~labels:[ ("a", "1"); ("b", "2") ];
  Metrics.incr m "hits" ~labels:[ ("b", "2"); ("a", "1") ];
  Alcotest.(check int) "one series, two increments" 2
    (Metrics.counter m "hits" ~labels:[ ("a", "1"); ("b", "2") ]);
  Alcotest.(check int) "series count" 1 (Metrics.series_count m "hits")

let test_counter_stream_gauge_roundtrip () =
  let m = Metrics.create () in
  let l = [ ("outcome", "ok") ] in
  Metrics.add_count m "rpc_outcomes" ~labels:l 5;
  Metrics.incr m "rpc_outcomes" ~labels:l;
  Alcotest.(check int) "counter" 6 (Metrics.counter m "rpc_outcomes" ~labels:l);
  Alcotest.(check int) "unwritten counter" 0
    (Metrics.counter m "rpc_outcomes" ~labels:[ ("outcome", "timeout") ]);
  List.iter (fun v -> Metrics.observe m "join_ms" ~labels:l v) [ 10.0; 20.0; 30.0 ];
  (match Metrics.summary m "join_ms" ~labels:l with
  | None -> Alcotest.fail "stream summary missing"
  | Some s ->
      Alcotest.(check int) "stream count" 3 s.count;
      Alcotest.(check (float 1e-9)) "stream mean" 20.0 s.mean);
  (match Metrics.quantile m "join_ms" ~labels:l 0.5 with
  | None -> Alcotest.fail "stream quantile missing"
  | Some v ->
      Alcotest.(check bool) "median near 20" true
        (Float.abs (v -. 20.0) <= (Prelude.Sketch.default_alpha *. 20.0) +. 1e-9));
  Metrics.set m "members" ~labels:l 41.0;
  Metrics.set m "members" ~labels:l 42.0;
  Alcotest.(check (option (float 1e-9))) "gauge last-wins" (Some 42.0)
    (Metrics.gauge m "members" ~labels:l);
  Alcotest.(check (option (float 1e-9))) "unwritten gauge" None
    (Metrics.gauge m "members" ~labels:[ ("outcome", "timeout") ])

let test_cardinality_cap () =
  let m = Metrics.create ~max_series_per_name:4 () in
  for i = 1 to 10 do
    Metrics.incr m "per_peer" ~labels:[ ("peer", string_of_int i) ]
  done;
  (* The cap bounds the real series; the reserved overflow series rides on
     top, so storage stays at cap + 1 no matter how many label sets show
     up. *)
  Alcotest.(check int) "capped series count" 5 (Metrics.series_count m "per_peer");
  Alcotest.(check int) "overflow absorbed the rest" 6
    (Metrics.counter m "per_peer" ~labels:Metrics.overflow_labels);
  Alcotest.(check int) "rerouted writes counted" 6 (Metrics.overflow_routed m);
  (* A name that stays under the cap is unaffected. *)
  Metrics.incr m "small" ~labels:[ ("x", "1") ];
  Alcotest.(check int) "other name untouched" 1
    (Metrics.counter m "small" ~labels:[ ("x", "1") ])

(* Writes go through a memo of (name, labels as written): both orders of
   one label set land on the same series. *)
let test_memo_label_orders () =
  let m = Metrics.create () in
  let ab = [ ("kind", "report"); ("dir", "sent") ] and ba = [ ("dir", "sent"); ("kind", "report") ] in
  for _ = 1 to 3 do
    Metrics.incr m "wire_msgs_total" ~labels:ab;
    Metrics.add_count m "wire_msgs_total" ~labels:ba 2;
    Metrics.observe m "wire_ms" ~labels:ab 1.0;
    Metrics.observe m "wire_ms" ~labels:ba 3.0
  done;
  Alcotest.(check int) "one counter" 9 (Metrics.counter m "wire_msgs_total" ~labels:ab);
  Alcotest.(check int) "one counter series" 1 (Metrics.series_count m "wire_msgs_total");
  (match Metrics.summary m "wire_ms" ~labels:ba with
  | None -> Alcotest.fail "stream missing"
  | Some s ->
      Alcotest.(check int) "one stream" 6 s.count;
      Alcotest.(check (float 1e-9)) "both orders' samples" 2.0 s.mean);
  Alcotest.(check int) "two series in all" 2 (List.length (Metrics.series m));
  Alcotest.(check int) "nothing rerouted" 0 (Metrics.overflow_routed m)

(* A repeated labeled write builds no key: the memo hit and the cell bump
   allocate nothing. *)
let test_repeated_incr_allocation () =
  let m = Metrics.create () in
  let labels = [ ("kind", "report"); ("dir", "sent") ] in
  Metrics.incr m "wire_msgs_total" ~labels;
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Metrics.incr m "wire_msgs_total" ~labels
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "counted" 1_001 (Metrics.counter m "wire_msgs_total" ~labels);
  Alcotest.(check bool) (Printf.sprintf "1,000 incrs allocate %.0f words" words) true (words <= 16.0)

(* The memo holds only label sets under the cap: a label set past it is
   rerouted, and counted as rerouted, on every write. *)
let test_memo_keeps_overflow_routing () =
  let m = Metrics.create ~max_series_per_name:2 () in
  let peer i = [ ("peer", string_of_int i) ] in
  Metrics.incr m "per_peer" ~labels:(peer 1);
  Metrics.incr m "per_peer" ~labels:(peer 2);
  let late = peer 3 in
  for _ = 1 to 5 do
    Metrics.incr m "per_peer" ~labels:late
  done;
  Metrics.add_count m "per_peer" ~labels:(peer 4) 3;
  Metrics.incr m "per_peer" ~labels:(peer 1);
  Alcotest.(check int) "every late write overflowed" 8
    (Metrics.counter m "per_peer" ~labels:Metrics.overflow_labels);
  Alcotest.(check int) "every late write counted" 6 (Metrics.overflow_routed m);
  Alcotest.(check int) "late label set never stored" 0 (Metrics.counter m "per_peer" ~labels:late);
  Alcotest.(check int) "series under the cap still written" 2
    (Metrics.counter m "per_peer" ~labels:(peer 1));
  Alcotest.(check int) "cap + overflow" 3 (Metrics.series_count m "per_peer")

(* [Trace.reset] zeroes cells in place, so the cells a memoized series
   holds stay the live ones. *)
let test_reset_keeps_cached_cells () =
  let m = Metrics.create () in
  let l = [ ("outcome", "ok") ] in
  Metrics.incr m "rpc_outcomes" ~labels:l;
  Metrics.observe m "rpc_latency_ms" ~labels:l 5.0;
  Trace.reset (Metrics.trace m);
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter m "rpc_outcomes" ~labels:l);
  Metrics.incr m "rpc_outcomes" ~labels:l;
  Metrics.observe m "rpc_latency_ms" ~labels:l 7.0;
  Alcotest.(check int) "counter written after reset" 1 (Metrics.counter m "rpc_outcomes" ~labels:l);
  Alcotest.(check int) "flat view agrees" 1
    (Trace.counter (Metrics.trace m) (Metrics.canonical_key "rpc_outcomes" l));
  match Metrics.summary m "rpc_latency_ms" ~labels:l with
  | None -> Alcotest.fail "stream missing"
  | Some s ->
      Alcotest.(check int) "stream written after reset" 1 s.count;
      Alcotest.(check (float 1e-9)) "only the new sample" 7.0 s.mean

(* A component's own counter and stream, listed as labeled series at
   their first write ({!Metrics.bind_counter}): one cell, two names. *)
let bound_cells () =
  let flat = Trace.create () and m = Metrics.create () in
  let ok = [ ("outcome", "ok") ] in
  let count =
    Trace.counter_cell_of (fun () ->
        let r = Trace.counter_ref flat "rpc_ok" in
        Metrics.bind_counter m "rpc_outcomes" ~labels:ok r;
        r)
  in
  let latency =
    Trace.stream_cell_of (fun () ->
        let s = Trace.stream_ref flat "rpc_latency_ms" in
        Metrics.bind_stream m "rpc_latency_ms" ~labels:ok s;
        s)
  in
  (flat, m, ok, count, latency)

let test_bound_cell () =
  let flat, m, ok, count, latency = bound_cells () in
  Alcotest.(check (list (pair string int))) "unwritten: no flat counter" [] (Trace.counters flat);
  Alcotest.(check int) "unwritten: no series" 0 (List.length (Metrics.series m));
  Alcotest.(check int) "unwritten: no labeled cell" 0
    (List.length (Trace.counters (Metrics.trace m)));
  Trace.cell_incr count;
  Trace.cell_incr count;
  Trace.cell_observe latency 5.0;
  let labeled () = Metrics.counter m "rpc_outcomes" ~labels:ok in
  let samples () =
    List.map
      (fun s -> Option.map (fun (s : Trace.summary) -> s.count) s)
      [ Trace.summary flat "rpc_latency_ms"; Metrics.summary m "rpc_latency_ms" ~labels:ok ]
  in
  Alcotest.(check (pair int int)) "one write, both names" (2, 2)
    (Trace.counter flat "rpc_ok", labeled ());
  Alcotest.(check int) "the cell reads it" 2 (Trace.cell_count count);
  Alcotest.(check (list (option int))) "one sample, both names" [ Some 1; Some 1 ] (samples ());
  Alcotest.(check (list string))
    "labeled series"
    [ {|rpc_latency_ms{outcome="ok"}|}; {|rpc_outcomes{outcome="ok"}|} ]
    (List.map (fun (_, _, key) -> key) (Metrics.series m));
  let into = Trace.create () in
  Trace.merge_into ~into flat;
  Alcotest.(check (list (pair string int))) "merged once" [ ("rpc_ok", 2) ] (Trace.counters into);
  Alcotest.(check (option int)) "merged samples once" (Some 1)
    (Option.map (fun (s : Trace.summary) -> s.count) (Trace.summary into "rpc_latency_ms"));
  Trace.reset (Metrics.trace m);
  Alcotest.(check (pair int int)) "reset zeroes the one cell" (0, 0)
    (Trace.counter flat "rpc_ok", labeled ());
  Alcotest.(check (list (option int))) "and its stream" [ Some 0; Some 0 ] (samples ());
  Trace.cell_incr count;
  Alcotest.(check (pair int int))
    "written after reset" (1, 1)
    (Trace.counter flat "rpc_ok", labeled ())

let test_bind_conflicts () =
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail (what ^ ": accepted")
  in
  let m = Metrics.create ~max_series_per_name:2 () in
  Metrics.incr m "hits" ~labels:[ ("a", "1") ];
  raises "series with its own cell" (fun () ->
      Metrics.bind_counter m "hits" ~labels:[ ("a", "1") ] (ref 0));
  let r = ref 0 in
  Metrics.bind_counter m "hits" ~labels:[ ("a", "2") ] r;
  Metrics.bind_counter m "hits" ~labels:[ ("a", "2") ] r;
  incr r;
  Alcotest.(check int)
    "the same cell again binds" 1
    (Metrics.counter m "hits" ~labels:[ ("a", "2") ]);
  raises "past the cap" (fun () -> Metrics.bind_counter m "hits" ~labels:[ ("a", "3") ] (ref 0));
  raises "stream past the cap" (fun () ->
      Metrics.bind_stream m "hits" ~labels:[ ("a", "4") ] (Trace.stream_ref (Trace.create ()) "s"));
  Alcotest.(check int) "nothing overflowed" 0 (Metrics.overflow_routed m);
  Alcotest.(check int) "at the cap" 2 (Metrics.series_count m "hits");
  let t = Trace.create () in
  Trace.incr t "x";
  Trace.observe t "s" 1.0;
  raises "flat counter" (fun () -> Trace.bind_counter t "x" (ref 0));
  raises "flat stream" (fun () -> Trace.bind_stream t "s" (Trace.stream_ref (Trace.create ()) "s"))

let test_merge_trace_under_label () =
  let flat = Trace.create () in
  Trace.add_count flat "join" 3;
  List.iter (Trace.observe flat "join_ms") [ 5.0; 15.0 ];
  let m = Metrics.create () in
  Metrics.merge_trace m ~labels:[ ("replica", "2") ] flat;
  Alcotest.(check int) "counter filed under label" 3
    (Metrics.counter m "join" ~labels:[ ("replica", "2") ]);
  (match Metrics.summary m "join_ms" ~labels:[ ("replica", "2") ] with
  | None -> Alcotest.fail "stream not filed"
  | Some s -> Alcotest.(check int) "samples carried" 2 s.count)

let test_merge_into () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "hits" ~labels:[ ("replica", "0") ];
  Metrics.add_count b "hits" ~labels:[ ("replica", "0") ] 2;
  Metrics.incr b "hits" ~labels:[ ("replica", "1") ];
  Metrics.set a "members" ~labels:[] 10.0;
  Metrics.set b "members" ~labels:[] 99.0;
  Metrics.merge_into ~into:a b;
  Alcotest.(check int) "counters add" 3 (Metrics.counter a "hits" ~labels:[ ("replica", "0") ]);
  Alcotest.(check int) "new series appear" 1
    (Metrics.counter a "hits" ~labels:[ ("replica", "1") ]);
  Alcotest.(check (option (float 1e-9))) "gauge takes src value" (Some 99.0)
    (Metrics.gauge a "members" ~labels:[]);
  (* src unchanged *)
  Alcotest.(check int) "src untouched" 2 (Metrics.counter b "hits" ~labels:[ ("replica", "0") ])

let test_prometheus_labeled () =
  let m = Metrics.create () in
  Metrics.add_count m "rpc_outcomes" ~labels:[ ("outcome", "ok") ] 12;
  List.iter (fun v -> Metrics.observe m "join_ms" ~labels:[ ("replica", "0") ] v)
    [ 1.0; 2.0; 3.0 ];
  Metrics.set m "shard_members" ~labels:[ ("shard", "1") ] 7.0;
  let text = Export.prometheus_labeled [ ("fleet", m) ] in
  check_has "counter line" text "nearby_fleet_rpc_outcomes_total{outcome=\"ok\"} 12";
  check_has "stream count line" text "nearby_fleet_join_ms_count{replica=\"0\"} 3";
  check_has "quantile label appended" text "quantile=\"0.99\"";
  check_has "gauge line" text "nearby_fleet_shard_members{shard=\"1\"} 7";
  let json = Export.labeled_json m in
  check_has "json series array" json "\"series\"";
  check_has "json nested labels" json "\"labels\"";
  check_has "json overflow counter" json "\"overflow_routed\""

(* Label values straight from hostile input — quotes, backslashes,
   newlines — must round-trip through the exposition: one sample per
   line, escapes per the exposition grammar, and a parse of the emitted
   line recovers the original values byte for byte. *)
let parse_prom_sample line =
  let brace = String.index line '{' in
  let name = String.sub line 0 brace in
  let rec labels acc j =
    let eq = String.index_from line j '=' in
    let key = String.sub line j (eq - j) in
    if line.[eq + 1] <> '"' then Alcotest.failf "no opening quote in %S" line;
    let buf = Buffer.create 16 in
    let rec value k =
      match line.[k] with
      | '\\' ->
          (match line.[k + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | c -> Buffer.add_char buf c);
          value (k + 2)
      | '"' -> k + 1
      | c ->
          Buffer.add_char buf c;
          value (k + 1)
    in
    let after = value (eq + 2) in
    let acc = (key, Buffer.contents buf) :: acc in
    match line.[after] with
    | ',' -> labels acc (after + 1)
    | '}' -> List.rev acc
    | c -> Alcotest.failf "bad separator %C in %S" c line
  in
  (name, labels [] (brace + 1))

let test_prometheus_labeled_escaping () =
  let m = Metrics.create () in
  let path = "C:\\temp\\\"quoted\"" and note = "line1\nline2" in
  Metrics.add_count m "wire_bytes" ~labels:[ ("path", path); ("note", note) ] 7;
  let text = Export.prometheus_labeled [ ("fleet", m) ] in
  let sample =
    match
      List.find_opt
        (fun l -> String.length l > 0 && l.[0] <> '#' && contains l "wire_bytes_total")
        (String.split_on_char '\n' text)
    with
    | Some l -> l
    | None -> Alcotest.failf "no wire_bytes_total sample in %S" text
  in
  (* The newline in the value was escaped — the sample stayed one line. *)
  check_has "escaped newline" sample "\\n";
  check_has "escaped quote" sample "\\\"";
  check_has "escaped backslash" sample "\\\\";
  let name, labels = parse_prom_sample sample in
  Alcotest.(check string) "metric name" "nearby_fleet_wire_bytes_total" name;
  Alcotest.(check string) "quoted/backslashed value round-trips" path
    (List.assoc "path" labels);
  Alcotest.(check string) "newline value round-trips" note (List.assoc "note" labels)

(* Every BENCH_*.json emitter stamps through Export.bench_json, so all
   five artifacts carry exactly the same meta key set no matter which
   optional knobs a bench supplies — the per-bench parameters live under
   the single nested "params" object, never as ad-hoc top-level keys. *)
let test_bench_json_meta_keys () =
  let expected =
    [ "backends"; "date_utc"; "domains"; "git_rev"; "ocaml_version"; "params"; "seed"; "word_size" ]
  in
  let meta_keys doc_str =
    let doc = Json.parse_exn doc_str in
    match Json.member "meta" doc with
    | Some meta -> List.sort compare (Json.keys meta)
    | None -> Alcotest.failf "no meta in %s" doc_str
  in
  Alcotest.(check (list string))
    "all knobs" expected
    (meta_keys
       (Export.bench_json ~seed:1 ~backends:[ "tree" ]
          ~params:[ ("peers", "10"); ("loss", "0.3") ]
          [ ("wire", "{}") ]));
  Alcotest.(check (list string))
    "no knobs" expected
    (meta_keys (Export.bench_json [ ("runs", "[]") ]))

(* The acceptance scenario: a 3-replica cluster of path-tree servers
   exports one merged fleet-wide trace whose per-label p99s and merged p99 stay within
   the documented sketch error bound of the per-replica source traces. *)
let test_fleet_merged_trace_acceptance () =
  let config =
    {
      Eval.Fleet_obs.quick_config with
      routers = 400;
      peers = 60;
      replicas = 3;
      seed = 5;
    }
  in
  let r, t = Eval.Fleet_obs.run config in
  Alcotest.(check int) "all joins complete" config.peers r.completed;
  Alcotest.(check int) "no failures" 0 r.failed;
  let cluster = Eval.Fleet_obs.cluster t in
  Alcotest.(check int) "three replicas" 3 (Nearby.Cluster.replica_count cluster);
  let fleet = Eval.Fleet_obs.fleet_trace t in
  let joins_of trace =
    match Trace.summary trace "join_ms" with Some s -> s.Trace.count | None -> 0
  in
  Alcotest.(check int) "fleet stream pools every replica"
    (List.fold_left ( + ) 0
       (List.init 3 (fun i -> joins_of (Nearby.Server.trace (Nearby.Cluster.server_of cluster i)))))
    (joins_of fleet);
  let bound = 2.0 *. Prelude.Sketch.default_alpha in
  (* Each replica's labeled scrape answers within the sketch bound of the
     replica's own source trace. *)
  let scraped = Eval.Fleet_obs.scrape t in
  for i = 0 to 2 do
    let labeled =
      match
        Metrics.quantile scraped "join_ms" ~labels:[ ("replica", string_of_int i) ] 0.99
      with
      | Some v -> v
      | None -> Alcotest.failf "replica %d: no labeled p99" i
    in
    let source =
      match
        Trace.quantile (Nearby.Server.trace (Nearby.Cluster.server_of cluster i))
          "join_ms" 0.99
      with
      | Some v -> v
      | None -> Alcotest.failf "replica %d: no source p99" i
    in
    Alcotest.(check bool)
      (Printf.sprintf "replica %d labeled p99 %.3f within bound of source %.3f" i labeled
         source)
      true
      (Float.abs (labeled -. source) <= (bound *. Float.abs source) +. 1e-9)
  done;
  (* The merged stream is the replicas' streams added bucket by bucket. *)
  let replica_traces =
    List.init 3 (fun i -> Nearby.Server.trace (Nearby.Cluster.server_of cluster i))
  in
  let summed = Hashtbl.create 64 in
  List.iter
    (fun tr ->
      List.iter
        (fun (b, _, c) ->
          Hashtbl.replace summed b (c + Option.value (Hashtbl.find_opt summed b) ~default:0))
        (Trace.buckets tr "join_ms"))
    replica_traces;
  Alcotest.(check (list (pair int int))) "merged buckets = the replicas' summed"
    (List.sort compare (List.of_seq (Hashtbl.to_seq summed)))
    (List.sort compare (List.map (fun (b, _, c) -> (b, c)) (Trace.buckets fleet "join_ms")));
  (* The merged fleet p99 lands inside the per-replica envelope, stretched
     by the sketch bound. *)
  let merged =
    match Trace.quantile fleet "join_ms" 0.99 with
    | Some v -> v
    | None -> Alcotest.fail "no merged fleet p99"
  in
  Alcotest.(check (float 1e-9)) "result exposes the merged p99" merged r.fleet_join_p99_ms;
  let lo = Array.fold_left Float.min infinity r.replica_join_p99_ms in
  let hi = Array.fold_left Float.max neg_infinity r.replica_join_p99_ms in
  Alcotest.(check bool)
    (Printf.sprintf "merged p99 %.3f within [%.3f, %.3f] envelope" merged lo hi)
    true
    (merged >= lo *. (1.0 -. bound) -. 1e-9 && merged <= hi *. (1.0 +. bound) +. 1e-9);
  (* The dashboard renders every panel headlessly, escape-free. *)
  let frame = Eval.Fleet_obs.render t in
  List.iter (check_has "render" frame)
    [
      "nearby fleet top";
      "[ops/s";
      "[join latency";
      "[slo]";
      "[rpc]";
      "[wire]";
      "[admission";
      "[runtime]";
    ];
  Alcotest.(check bool) "no escape sequences" true (not (String.contains frame '\027'));
  (* The generously-provisioned front door admits everything. *)
  let totals = Nearby.Admission.totals (Eval.Fleet_obs.admission t) in
  Alcotest.(check int) "admission passes every join" config.peers
    totals.Nearby.Admission.admitted;
  Alcotest.(check int) "healthy fleet sheds nothing" 0 totals.Nearby.Admission.shed_total

(* --- The fleet smoke: `nearby_sim top --once --quick --seed 1` -----------

   One session as the command runs it: to the horizon, one frame, then
   the metrics snapshot and the exposition it writes. *)
let smoke =
  lazy
    (let t = Eval.Fleet_obs.start { Eval.Fleet_obs.quick_config with seed = 1 } in
     Eval.Fleet_obs.advance t ~until:(Eval.Fleet_obs.horizon t);
     let frame = Eval.Fleet_obs.render t in
     (t, frame, Json.parse_exn (Eval.Fleet_obs.metrics_json t), Eval.Fleet_obs.prometheus t))

let json_at doc path =
  match Json.path path doc with
  | Some v -> v
  | None -> Alcotest.failf "snapshot has no %s" (String.concat "." path)

let json_float doc path =
  match Json.to_float (json_at doc path) with
  | Some v -> v
  | None -> Alcotest.failf "%s is not a number" (String.concat "." path)

(* The snapshot: host meta, per-replica labeled streams beside the merged
   fleet section, a merged p99 inside the replicas' envelope, and the
   phased runtime profile. *)
let test_fleet_smoke_snapshot () =
  let _, _, doc, _ = Lazy.force smoke in
  let meta = Json.keys (json_at doc [ "meta" ]) in
  List.iter
    (fun key -> Alcotest.(check bool) ("meta has " ^ key) true (List.mem key meta))
    [ "ocaml_version"; "word_size"; "domains" ];
  let replica_p99 =
    List.filter_map
      (fun s ->
        match (Json.member "name" s, Json.member "kind" s) with
        | Some (Json.String "join_ms"), Some (Json.String "stream") ->
            let replica = Option.bind (Json.path [ "labels"; "replica" ] s) Json.to_string in
            Option.map (fun p99 -> (Option.get replica, p99)) (Json.to_float (json_at s [ "stats"; "p99" ]))
        | _ -> None)
      (Option.get (Json.to_list (json_at doc [ "labeled"; "replicas"; "series" ])))
  in
  Alcotest.(check (list string)) "a join_ms stream per replica" [ "0"; "1"; "2" ]
    (List.sort compare (List.map fst replica_p99));
  Alcotest.(check (float 0.0)) "merged samples = cluster registrations"
    (json_float doc [ "sections"; "fleet"; "counters"; "cluster_register" ])
    (json_float doc [ "sections"; "fleet"; "stats"; "join_ms"; "count" ]);
  (* Both sides are sketch reads at alpha = 1%: the envelope is stretched
     by twice that bound. *)
  let merged = json_float doc [ "sections"; "fleet"; "stats"; "join_ms"; "p99" ] in
  let p99s = List.map snd replica_p99 in
  let lo = List.fold_left Float.min infinity p99s and hi = List.fold_left Float.max 0.0 p99s in
  Alcotest.(check bool)
    (Printf.sprintf "merged p99 %.2f within [%.2f, %.2f]" merged lo hi)
    true
    ((lo *. 0.98) -. 1e-9 <= merged && merged <= (hi *. 1.02) +. 1e-9);
  (* The join's client cost: continue answers and probe packets per
     registered join, gauges of the fleet registry that reconcile with the
     merged counters. *)
  let counter name = json_float doc [ "sections"; "fleet"; "counters"; name ] in
  let gauge name =
    match
      List.find_map
        (fun s ->
          match (Json.member "name" s, Json.member "kind" s) with
          | Some (Json.String n), Some (Json.String "gauge") when n = name ->
              Json.to_float (json_at s [ "value" ])
          | _ -> None)
        (Option.get (Json.to_list (json_at doc [ "labeled"; "fleet"; "series" ])))
    with
    | Some v -> v
    | None -> Alcotest.failf "no %s gauge" name
  in
  Alcotest.(check bool) "some first round continued" true (counter "join_continue" > 0.0);
  (* The snapshot prints floats to 6 significant digits. *)
  Alcotest.(check (float 1e-4)) "continues per join"
    (counter "join_continue" /. counter "join")
    (gauge "join_continue_per_join");
  Alcotest.(check (float 1e-4)) "probes per join"
    (counter "probe_packets" /. counter "join")
    (gauge "join_probes_per_join");
  let phases = Json.keys (json_at doc [ "runtime"; "phases" ]) in
  List.iter
    (fun phase -> Alcotest.(check bool) ("runtime phase " ^ phase) true (List.mem phase phases))
    [ "build"; "run" ]

(* One exposition sample line: name, optional {k="v",...} labels with
   backslash escapes, one space, a value without spaces. *)
let sample_line_ok line =
  let n = String.length line in
  let is_start c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let is_name c = is_start c || (c >= '0' && c <= '9') in
  let rec ident i = if i < n && is_name line.[i] then ident (i + 1) else i in
  let name i = if i < n && is_start line.[i] then ident (i + 1) else -1 in
  let rec quoted i =
    if i >= n then -1
    else if line.[i] = '\\' then if i + 1 < n then quoted (i + 2) else -1
    else if line.[i] = '"' then i + 1
    else quoted (i + 1)
  in
  let rec labels i =
    let j = name i in
    if j < 0 || j + 1 >= n || line.[j] <> '=' || line.[j + 1] <> '"' then -1
    else
      let k = quoted (j + 2) in
      if k < 0 || k >= n then -1
      else if line.[k] = ',' then labels (k + 1)
      else if line.[k] = '}' then k + 1
      else -1
  in
  let i = name 0 in
  let i = if i >= 0 && i < n && line.[i] = '{' then labels (i + 1) else i in
  i >= 0 && i + 1 < n && line.[i] = ' '
  && not (String.contains (String.sub line (i + 1) (n - i - 1)) ' ')

let test_fleet_smoke_exposition () =
  let _, _, _, prom = Lazy.force smoke in
  List.iter (check_has "exposition" prom)
    [
      "nearby_replicas_join_ms{replica=\"0\",quantile=\"0.99\"}";
      "nearby_fleet_rpc_outcomes_total{outcome=\"ok\"}";
      "nearby_fleet_join_probes_per_join ";
      "nearby_fleet_join_continue_per_join ";
      "nearby_replicas_join_continue_total{replica=\"0\"}";
    ];
  let samples =
    List.filter (fun l -> l <> "" && l.[0] <> '#') (String.split_on_char '\n' prom)
  in
  Alcotest.(check bool) "samples exported" true (samples <> []);
  List.iter
    (fun line -> Alcotest.(check bool) ("exposition grammar: " ^ line) true (sample_line_ok line))
    samples;
  Alcotest.(check bool) "the checker rejects a bad line" false
    (sample_line_ok "nearby_x{replica=0} 1")

(* The frame: every panel, escape-free; a healthy fleet that never
   diverges, tracks report ages and sheds nothing; a wire panel that saw
   traffic and prints the cluster's amplification. *)
let test_fleet_smoke_frame () =
  let t, frame, _, _ = Lazy.force smoke in
  List.iter (check_has "frame" frame)
    [
      "nearby fleet top";
      "[ops/s";
      "[join latency";
      "[slo]";
      "[rpc]";
      "[wire]";
      "[health]";
      "[admission";
      "[runtime]";
      "digest checks=";
      "divergent_now=0";
      "staleness: report age";
      "shed: none";
    ];
  Alcotest.(check bool) "no escape sequences" false (String.contains frame '\027');
  Alcotest.(check bool) "not flagged divergent" false (contains frame "[DIVERGED]");
  Alcotest.(check bool) "the wire panel saw traffic" false (contains frame "total=0B");
  let amp = Nearby.Cluster.replication_amplification (Eval.Fleet_obs.cluster t) in
  check_has "frame" frame (Printf.sprintf "amplification=%.2fx" amp);
  Alcotest.(check bool)
    (Printf.sprintf "1 < amplification %.4f < 3 replicas" amp)
    true
    (amp > 1.0 && amp < 3.0)

(* --- Export pins ---------------------------------------------------------

   Digests of what `nearby_sim top --once --quick --seed 1` and a quick
   `nearby_sim load` export, with the host [meta], the [runtime] profile
   and the wall-clock registry timings left out: every other number is
   computed on the simulated clock, so a change that moves none of them
   keeps these digests.  Before a first round's answer stopped charging
   its server a separate neighbor request, the two fleet digests read
   d98583d86f6bd8f25d3691374fd4aad8 and 70bfa2433a75ac3043f658cd69a628e6:
   the servers' [wire_bytes] counters were the only difference. *)

let wall_clock text =
  List.exists (contains text)
    Nearby.Instrumented_registry.[ insert_ns; remove_ns; query_ns ]

(* The document, printed canonically (floats in hex) without the parts
   above. *)
let canonical doc =
  let buf = Buffer.create 65536 in
  let rec print = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
    | Json.Number f -> Buffer.add_string buf (Printf.sprintf "%h" f)
    | Json.String s -> Buffer.add_string buf (Printf.sprintf "%S" s)
    | Json.List items ->
        Buffer.add_char buf '[';
        List.iter
          (fun v ->
            match Json.member "name" v with
            | Some (Json.String name) when wall_clock name -> ()
            | _ ->
                print v;
                Buffer.add_char buf ',')
          items;
        Buffer.add_char buf ']'
    | Json.Obj fields ->
        Buffer.add_char buf '{';
        List.iter
          (fun (key, v) ->
            if not (key = "meta" || key = "runtime" || wall_clock key) then begin
              Buffer.add_string buf (Printf.sprintf "%S:" key);
              print v;
              Buffer.add_char buf ','
            end)
          fields;
        Buffer.add_char buf '}'
  in
  print doc;
  Buffer.contents buf

let simulated_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun line -> not (wall_clock line))
  |> String.concat "\n"

let digest text = Digest.to_hex (Digest.string text)

let test_export_pins () =
  let _, _, doc, exposition = Lazy.force smoke in
  let result, a = Eval.Load_exp.run_instrumented Eval.Load_exp.quick_config in
  let sections = [ ("load", a.exp_trace); ("server", a.server_trace) ] in
  let labeled = [ ("admission", a.metrics) ] in
  Alcotest.(check (list (pair string string)))
    "digests"
    [
      ("top --metrics-out", "5d3fdd657f0f89c1b579f610c3ddb094");
      ("top --prom-out", "14d9cf98ebce824b6562bfca8456d198");
      ("load", "abec840073050e485b2a65520815db70");
    ]
    [
      ("top --metrics-out", digest (canonical doc));
      ("top --prom-out", digest (simulated_lines exposition));
      ( "load",
        digest
          (String.concat "\n"
             [
               Eval.Load_exp.result_json result;
               Export.metrics_json ~timeseries:[ ("load", a.timeseries) ] ~labeled sections;
               Export.prometheus sections ^ Export.prometheus_labeled labeled;
             ]) );
    ]

let suite =
  ( "metrics",
    [
      Alcotest.test_case "canonical key" `Quick test_canonical_key;
      Alcotest.test_case "label order insensitive" `Quick test_label_order_insensitive;
      Alcotest.test_case "counter/stream/gauge roundtrip" `Quick
        test_counter_stream_gauge_roundtrip;
      Alcotest.test_case "cardinality cap" `Quick test_cardinality_cap;
      Alcotest.test_case "memo: label orders share a series" `Quick test_memo_label_orders;
      Alcotest.test_case "memo: repeated incr allocates nothing" `Quick
        test_repeated_incr_allocation;
      Alcotest.test_case "memo: overflow still routed per write" `Quick
        test_memo_keeps_overflow_routing;
      Alcotest.test_case "memo: reset keeps cached cells live" `Quick
        test_reset_keeps_cached_cells;
      Alcotest.test_case "bound cell: one write, two names" `Quick test_bound_cell;
      Alcotest.test_case "bound cell: conflicts and cap raise" `Quick test_bind_conflicts;
      Alcotest.test_case "merge_trace under label" `Quick test_merge_trace_under_label;
      Alcotest.test_case "merge_into" `Quick test_merge_into;
      Alcotest.test_case "fleet smoke: snapshot" `Quick test_fleet_smoke_snapshot;
      Alcotest.test_case "fleet smoke: exposition" `Quick test_fleet_smoke_exposition;
      Alcotest.test_case "fleet smoke: dashboard frame" `Quick test_fleet_smoke_frame;
      Alcotest.test_case "export pins" `Quick test_export_pins;
      Alcotest.test_case "labeled exporters" `Quick test_prometheus_labeled;
      Alcotest.test_case "exposition escaping round-trips" `Quick
        test_prometheus_labeled_escaping;
      Alcotest.test_case "bench_json meta keys identical" `Quick test_bench_json_meta_keys;
      Alcotest.test_case "fleet merged-trace acceptance" `Slow
        test_fleet_merged_trace_acceptance;
    ] )
