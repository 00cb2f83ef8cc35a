(* Audit: online sampled ground-truth checks of the query path.  The load-
   bearing property is equivalence with the offline evaluator — at rate 1.0
   the auditor must agree with Eval.Measure on the same workload. *)

open Nearby

let make_workload ?(routers = 300) ?(peers = 40) ~seed () =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params routers) ~seed in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let rng = Prelude.Prng.create seed in
  let landmarks = Landmark.place map.graph Landmark.Medium_degree ~count:4 ~rng in
  let server = Server.create oracle ~landmarks in
  let client = Client.create oracle ~landmarks in
  let peer_routers =
    Array.init peers (fun peer -> map.leaves.(peer mod Array.length map.leaves))
  in
  Array.iteri
    (fun peer attach_router -> ignore (Server.join server ~client ~peer ~attach_router))
    peer_routers;
  (map, server, peer_routers)

let test_rate_validation () =
  let _, server, _ = make_workload ~seed:1 () in
  match Audit.create ~rate:1.5 server with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate above 1 accepted"

let test_rate_zero_never_samples () =
  let _, server, _ = make_workload ~seed:2 () in
  let a = Audit.create ~rate:0.0 server in
  for peer = 0 to 19 do
    Audit.sample_reply a ~peer ~reply:(Server.neighbors server ~peer ~k:3)
  done;
  Alcotest.(check int) "no audits" 0 (Simkit.Trace.counter (Audit.trace a) "audit_samples");
  Alcotest.(check int) "all skipped" 20
    (Simkit.Trace.counter (Audit.trace a) "audit_not_sampled")

let test_sampled_rate_roughly_holds () =
  let _, server, _ = make_workload ~peers:40 ~seed:3 () in
  let a = Audit.create ~rate:0.3 server in
  let replies = 400 in
  for i = 0 to replies - 1 do
    let peer = i mod 40 in
    Audit.sample_reply a ~peer ~reply:(Server.neighbors server ~peer ~k:3)
  done;
  let sampled = Simkit.Trace.counter (Audit.trace a) "audit_samples" in
  Alcotest.(check int) "sampled + skipped = replies" replies
    (sampled + Simkit.Trace.counter (Audit.trace a) "audit_not_sampled");
  (* 400 Bernoulli(0.3) trials: anything outside [80, 160] means the
     sampler is broken, not unlucky. *)
  Alcotest.(check bool)
    (Printf.sprintf "sampled count %d near 120" sampled)
    true
    (sampled >= 80 && sampled <= 160)

let test_unknown_peer_counted () =
  let _, server, _ = make_workload ~seed:4 () in
  let a = Audit.create ~rate:1.0 server in
  Audit.audit_reply a ~peer:9999 ~reply:[ (0, 1) ];
  Alcotest.(check int) "no_info counter" 1 (Simkit.Trace.counter (Audit.trace a) "audit_no_info");
  Alcotest.(check int) "not scored" 0 (Simkit.Trace.counter (Audit.trace a) "audit_samples")

(* Full-rate audit against the offline evaluator on the same replies: the
   acceptance criterion is agreement within 5%. *)
let test_full_rate_matches_offline_measure () =
  let k = 4 in
  let map, server, peer_routers = make_workload ~peers:40 ~seed:5 () in
  let a = Audit.create ~rate:1.0 server in
  let n = Array.length peer_routers in
  let answers = Array.init n (fun peer -> Audit.neighbors a ~peer ~k) in
  let trace = Audit.trace a in
  Alcotest.(check int) "every reply audited" n (Simkit.Trace.counter trace "audit_samples");
  let ctx = Selector.make_context map.graph ~peer_routers in
  let sets = Array.map (fun reply -> Array.of_list (List.map fst reply)) answers in
  let outcome = Eval.Measure.score ctx ~k ~named_sets:[ ("server", sets) ] in
  let scored = List.hd outcome.Eval.Measure.scored in
  let online_stretch =
    (Option.get (Simkit.Trace.summary trace "audit_stretch")).Simkit.Trace.mean
  in
  let online_recall =
    (Option.get (Simkit.Trace.summary trace "audit_recall_at_k")).Simkit.Trace.mean
  in
  Alcotest.(check bool) "stretch is a ratio >= 1" true (online_stretch >= 1.0);
  (* Mean of per-peer ratios vs ratio of sums: same signal, same data, so
     they must sit within the ±5% band the acceptance criterion names. *)
  let rel_diff = Float.abs (online_stretch -. scored.Eval.Measure.ratio) /. scored.Eval.Measure.ratio in
  Alcotest.(check bool)
    (Printf.sprintf "stretch %.4f vs offline ratio %.4f within 5%%" online_stretch
       scored.Eval.Measure.ratio)
    true (rel_diff <= 0.05);
  let recall_diff = Float.abs (online_recall -. scored.Eval.Measure.hit_ratio) in
  Alcotest.(check bool)
    (Printf.sprintf "recall %.4f vs offline hit ratio %.4f within 0.05" online_recall
       scored.Eval.Measure.hit_ratio)
    true (recall_diff <= 0.05)

let test_optimal_reply_scores_perfectly () =
  (* Feed the auditor the ground-truth sets themselves: recall 1.0,
     stretch 1.0, zero displacement, every sample exact. *)
  let k = 3 in
  let map, server, peer_routers = make_workload ~peers:30 ~seed:6 () in
  let ctx = Selector.make_context map.graph ~peer_routers in
  let n = Array.length peer_routers in
  let dummy = Array.make n [||] in
  let outcome = Eval.Measure.score ctx ~k ~named_sets:[ ("dummy", dummy) ] in
  let a = Audit.create ~rate:1.0 server in
  Array.iteri
    (fun peer opt ->
      Audit.audit_reply a ~peer ~reply:(Array.to_list (Array.map (fun id -> (id, 0)) opt)))
    outcome.Eval.Measure.optimal_sets;
  let trace = Audit.trace a in
  let mean name = (Option.get (Simkit.Trace.summary trace name)).Simkit.Trace.mean in
  Alcotest.(check (float 1e-9)) "recall 1.0" 1.0 (mean "audit_recall_at_k");
  Alcotest.(check (float 1e-9)) "stretch 1.0" 1.0 (mean "audit_stretch");
  Alcotest.(check int) "all exact" n (Simkit.Trace.counter trace "audit_exact")

let test_timeseries_feed () =
  let _, server, _ = make_workload ~seed:7 () in
  let ts = Simkit.Timeseries.create ~window_ms:10.0 () in
  let now = ref 0.0 in
  let a = Audit.create ~rate:1.0 ~timeseries:ts ~clock:(fun () -> !now) server in
  now := 5.0;
  ignore (Audit.neighbors a ~peer:0 ~k:3);
  now := 25.0;
  ignore (Audit.neighbors a ~peer:1 ~k:3);
  match Simkit.Timeseries.windows ts "audit_recall_at_k" with
  | [ Some w0; None; Some w2 ] ->
      Alcotest.(check int) "first sample in window 0" 0 w0.Simkit.Timeseries.index;
      Alcotest.(check int) "second sample in window 2" 2 w2.Simkit.Timeseries.index
  | ws ->
      Alcotest.fail
        (Printf.sprintf "expected windows [0; gap; 2], got %d entries" (List.length ws))

let suite =
  ( "audit",
    [
      Alcotest.test_case "rate validation" `Quick test_rate_validation;
      Alcotest.test_case "rate 0 never samples" `Quick test_rate_zero_never_samples;
      Alcotest.test_case "sampled rate roughly holds" `Quick test_sampled_rate_roughly_holds;
      Alcotest.test_case "unknown peer counted" `Quick test_unknown_peer_counted;
      Alcotest.test_case "rate 1.0 = offline evaluator" `Quick
        test_full_rate_matches_offline_measure;
      Alcotest.test_case "optimal reply scores perfectly" `Quick
        test_optimal_reply_scores_perfectly;
      Alcotest.test_case "timeseries feed" `Quick test_timeseries_feed;
    ] )
