(* Slo: declarative objectives, burn-rate evaluation over Timeseries
   windows, the --slo mini-language and the stateful breach monitor. *)

open Simkit

let check_parse input expected =
  match Slo.of_string input with
  | Error e -> Alcotest.fail (Printf.sprintf "%S failed to parse: %s" input e)
  | Ok s -> (
      Alcotest.(check string) (input ^ " keeps its spelling as name") input s.Slo.name;
      match (s.Slo.objective, expected) with
      | Slo.Quantile_max a, Slo.Quantile_max b ->
          Alcotest.(check string) "series" b.series a.series;
          Alcotest.(check (float 1e-9)) "q" b.q a.q;
          Alcotest.(check (float 1e-9)) "limit" b.limit a.limit
      | Slo.Mean_max a, Slo.Mean_max b ->
          Alcotest.(check string) "series" b.series a.series;
          Alcotest.(check (float 1e-9)) "limit" b.limit a.limit
      | Slo.Mean_min a, Slo.Mean_min b ->
          Alcotest.(check string) "series" b.series a.series;
          Alcotest.(check (float 1e-9)) "floor" b.floor a.floor
      | Slo.Ratio_min a, Slo.Ratio_min b ->
          Alcotest.(check string) "num" b.num a.num;
          Alcotest.(check string) "den" b.den a.den;
          Alcotest.(check (float 1e-9)) "floor" b.floor a.floor
      | got, want ->
          Alcotest.fail
            (Printf.sprintf "%S: parsed %s, wanted %s" input
               (Slo.describe_objective got) (Slo.describe_objective want)))

let test_parse_quantile_tag () =
  (* Regression: the _pNN splice once left the trailing digit in the series
     name ("join_p99_ms" -> "join9_ms"), silently matching no series. *)
  check_parse "join_p99_ms=500"
    (Slo.Quantile_max { series = "join_ms"; q = 0.99; limit = 500.0 });
  check_parse "rpc_latency_p90_ms=40"
    (Slo.Quantile_max { series = "rpc_latency_ms"; q = 0.9; limit = 40.0 });
  check_parse "setup_p50=3"
    (Slo.Quantile_max { series = "setup"; q = 0.5; limit = 3.0 })

let test_parse_bounds_and_ratio () =
  check_parse "audit_recall_at_k>=0.9"
    (Slo.Mean_min { series = "audit_recall_at_k"; floor = 0.9 });
  check_parse "rpc_latency_ms<=40" (Slo.Mean_max { series = "rpc_latency_ms"; limit = 40.0 });
  check_parse "join_completed/join_started>=0.99"
    (Slo.Ratio_min { num = "join_completed"; den = "join_started"; floor = 0.99 })

let test_parse_errors () =
  let rejects input =
    match Slo.of_string input with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" input)
  in
  rejects "";
  rejects "just_a_name";
  rejects "join_ms=500" (* "=" without a quantile tag *);
  rejects "x>=" (* missing number *);
  rejects "/den>=0.5" (* empty numerator *);
  rejects "x<=abc"

let test_spec_validation () =
  (match Slo.spec ~burn_threshold:0.0 (Slo.Mean_max { series = "x"; limit = 1.0 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero burn_threshold accepted");
  match Slo.spec ~lookback:(-1) (Slo.Mean_max { series = "x"; limit = 1.0 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative lookback accepted"

(* Three windows of "lat": means 10, 100, 100. *)
let three_window_ts () =
  let ts = Timeseries.create ~window_ms:100.0 () in
  Timeseries.observe ts "lat" ~now:10.0 10.0;
  Timeseries.observe ts "lat" ~now:110.0 100.0;
  Timeseries.observe ts "lat" ~now:210.0 100.0;
  ts

let test_evaluate_mean_burn_rate () =
  let ts = three_window_ts () in
  let st = Slo.evaluate ts (Slo.spec (Slo.Mean_max { series = "lat"; limit = 50.0 })) in
  Alcotest.(check int) "evaluated" 3 st.Slo.evaluated;
  Alcotest.(check int) "violating" 2 st.Slo.violating;
  Alcotest.(check (float 1e-9)) "burn rate" (2.0 /. 3.0) st.Slo.burn_rate;
  Alcotest.(check (float 1e-9)) "worst" 100.0 st.Slo.worst;
  Alcotest.(check bool) "breached at default threshold 0.5" true st.Slo.breached;
  let lax =
    Slo.evaluate ts
      (Slo.spec ~burn_threshold:0.7 (Slo.Mean_max { series = "lat"; limit = 50.0 }))
  in
  Alcotest.(check bool) "2/3 under threshold 0.7" false lax.Slo.breached

let test_evaluate_lookback () =
  let ts = three_window_ts () in
  (* Looking only at the oldest-excluded tail: both recent windows violate. *)
  let st =
    Slo.evaluate ts (Slo.spec ~lookback:2 (Slo.Mean_max { series = "lat"; limit = 50.0 }))
  in
  Alcotest.(check int) "only recent windows evaluated" 2 st.Slo.evaluated;
  Alcotest.(check (float 1e-9)) "full burn" 1.0 st.Slo.burn_rate;
  (* A floor objective over the same data: the good window is old. *)
  let floor_st =
    Slo.evaluate ts (Slo.spec ~lookback:1 (Slo.Mean_min { series = "lat"; floor = 50.0 }))
  in
  Alcotest.(check bool) "newest window satisfies the floor" false floor_st.Slo.breached

let test_evaluate_empty_series () =
  let ts = Timeseries.create ~window_ms:100.0 () in
  let st = Slo.evaluate ts (Slo.spec (Slo.Mean_max { series = "ghost"; limit = 1.0 })) in
  Alcotest.(check int) "nothing evaluated" 0 st.Slo.evaluated;
  Alcotest.(check bool) "no data, no breach" false st.Slo.breached;
  Alcotest.(check bool) "worst is nan" true (Float.is_nan st.Slo.worst)

let test_evaluate_quantile () =
  let ts = Timeseries.create ~window_ms:100.0 () in
  (* One window: 90 fast samples and a 10% tail at 1000; the p99 and p95
     see the tail, the median does not. *)
  for i = 0 to 99 do
    Timeseries.observe ts "lat" ~now:(float_of_int i)
      (if i mod 10 = 9 then 1000.0 else 1.0)
  done;
  let p99 =
    Slo.evaluate ts (Slo.spec (Slo.Quantile_max { series = "lat"; q = 0.99; limit = 10.0 }))
  in
  Alcotest.(check bool) "tail breaches p99 cap" true p99.Slo.breached;
  let p50 =
    Slo.evaluate ts (Slo.spec (Slo.Quantile_max { series = "lat"; q = 0.5; limit = 10.0 }))
  in
  Alcotest.(check bool) "median unaffected" false p50.Slo.breached;
  (* Any q reads from the window's sketch, not just the three summarized. *)
  let p95 =
    Slo.evaluate ts (Slo.spec (Slo.Quantile_max { series = "lat"; q = 0.95; limit = 10.0 }))
  in
  Alcotest.(check bool) "p95 evaluates and sees the tail" true p95.Slo.breached;
  Alcotest.(check (float 10.0)) "p95 worst is the tail" 1000.0 p95.Slo.worst

let test_evaluate_ratio_aggregates_across_windows () =
  let ts = Timeseries.create ~window_ms:100.0 () in
  (* 4 starts in window 0, completions landing in later windows — a
     per-window ratio would be nonsense (0/4 then 3/0). *)
  for _ = 1 to 4 do
    Timeseries.observe ts "join_started" ~now:10.0 1.0
  done;
  Timeseries.observe ts "join_completed" ~now:150.0 1.0;
  Timeseries.observe ts "join_completed" ~now:250.0 1.0;
  Timeseries.observe ts "join_completed" ~now:260.0 1.0;
  let spec =
    Slo.spec (Slo.Ratio_min { num = "join_completed"; den = "join_started"; floor = 0.9 })
  in
  let st = Slo.evaluate ts spec in
  Alcotest.(check (float 1e-9)) "aggregate ratio 3/4" 0.75 st.Slo.worst;
  Alcotest.(check bool) "under the floor" true st.Slo.breached;
  let ok =
    Slo.evaluate ts
      (Slo.spec (Slo.Ratio_min { num = "join_completed"; den = "join_started"; floor = 0.7 }))
  in
  Alcotest.(check bool) "laxer floor holds" false ok.Slo.breached

let test_monitor_edges () =
  let ts = Timeseries.create ~window_ms:100.0 () in
  let spec =
    Slo.spec ~lookback:1 ~burn_threshold:1.0 (Slo.Mean_max { series = "lat"; limit = 50.0 })
  in
  let m = Slo.monitor [ spec ] in
  let breaches = ref 0 and clears = ref 0 in
  let poll () =
    ignore
      (Slo.poll
         ~on_breach:(fun _ -> incr breaches)
         ~on_clear:(fun _ -> incr clears)
         m ts)
  in
  poll ();
  Alcotest.(check int) "no data, no edge" 0 !breaches;
  Timeseries.observe ts "lat" ~now:10.0 100.0;
  poll ();
  poll ();
  Alcotest.(check int) "breach fires once on the transition" 1 !breaches;
  Alcotest.(check (list string)) "listed while in breach" [ spec.Slo.name ]
    (Slo.breached_names m);
  Timeseries.observe ts "lat" ~now:150.0 1.0;
  poll ();
  poll ();
  Alcotest.(check int) "clear fires once" 1 !clears;
  Alcotest.(check (list string)) "no longer listed" [] (Slo.breached_names m);
  Timeseries.observe ts "lat" ~now:250.0 99.0;
  poll ();
  Alcotest.(check int) "re-breach is a fresh edge" 2 !breaches

let test_monitor_window_boundary_flap () =
  (* An admission queue that empties exactly at a window boundary: the
     good sample lands at t = k * window_ms, which belongs to the NEW
     window (half-open intervals), so a lookback-1 monitor must clear on
     that very poll — and a fresh violation one boundary later must be a
     new breach edge, not a suppressed duplicate.  Counts both edges of
     the breach -> clear -> breach flap. *)
  let ts = Timeseries.create ~window_ms:100.0 () in
  let spec =
    Slo.spec ~lookback:1 ~burn_threshold:1.0 (Slo.Mean_max { series = "wait"; limit = 50.0 })
  in
  let m = Slo.monitor [ spec ] in
  let breaches = ref 0 and clears = ref 0 in
  let poll () =
    ignore
      (Slo.poll
         ~on_breach:(fun _ -> incr breaches)
         ~on_clear:(fun _ -> incr clears)
         m ts)
  in
  (* Window 0: the queue is backed up. *)
  Timeseries.observe ts "wait" ~now:40.0 400.0;
  poll ();
  Alcotest.(check int) "backlog breaches" 1 !breaches;
  (* The queue drains; the idle head-age sample lands exactly on the
     boundary, opening window 1. *)
  Timeseries.observe ts "wait" ~now:100.0 0.0;
  poll ();
  Alcotest.(check int) "boundary sample clears" 1 !clears;
  Alcotest.(check int) "no extra breach" 1 !breaches;
  (* Polling again at the same state is edge-free. *)
  poll ();
  Alcotest.(check int) "steady clear is silent" 1 !clears;
  (* A second wave backs the queue up again exactly on the next boundary. *)
  Timeseries.observe ts "wait" ~now:200.0 400.0;
  poll ();
  Alcotest.(check int) "flap re-breaches" 2 !breaches;
  Alcotest.(check int) "still one clear" 1 !clears;
  (* And drains again on the boundary after that. *)
  Timeseries.observe ts "wait" ~now:300.0 0.0;
  poll ();
  Alcotest.(check int) "flap re-clears" 2 !clears;
  Alcotest.(check (list string)) "nothing left breached" [] (Slo.breached_names m)

let test_renderings () =
  let ts = three_window_ts () in
  let st = Slo.evaluate ts (Slo.of_string_exn "lat<=50") in
  let line = Slo.status_line st in
  let has needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "line names the spec" true (has "lat<=50" line);
  Alcotest.(check bool) "line flags the breach" true (has "BREACHED" line);
  let json = Slo.status_json st in
  Alcotest.(check bool) "json breached flag" true (has "\"breached\": true" json);
  Alcotest.(check bool) "json burn rate" true (has "\"burn_rate\"" json)

let suite =
  ( "slo",
    [
      Alcotest.test_case "parse quantile tags" `Quick test_parse_quantile_tag;
      Alcotest.test_case "parse bounds and ratios" `Quick test_parse_bounds_and_ratio;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "spec validation" `Quick test_spec_validation;
      Alcotest.test_case "mean burn rate" `Quick test_evaluate_mean_burn_rate;
      Alcotest.test_case "lookback" `Quick test_evaluate_lookback;
      Alcotest.test_case "empty series" `Quick test_evaluate_empty_series;
      Alcotest.test_case "quantile objective" `Quick test_evaluate_quantile;
      Alcotest.test_case "ratio aggregates across windows" `Quick
        test_evaluate_ratio_aggregates_across_windows;
      Alcotest.test_case "monitor edge events" `Quick test_monitor_edges;
      Alcotest.test_case "window-boundary flap" `Quick test_monitor_window_boundary_flap;
      Alcotest.test_case "renderings" `Quick test_renderings;
    ] )
