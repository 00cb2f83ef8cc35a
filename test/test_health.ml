(* State health: content-digest divergence episodes, the digest-gated
   anti-entropy transfer, report staleness, and the health experiment's
   end-to-end invariants. *)

open Test_cluster

(* --- Report staleness --------------------------------------------------- *)

let test_staleness_tracking () =
  let fx = fixture ~seed:41 () in
  let client = make_client fx in
  let server = make_server fx () in
  let clock = ref 0.0 in
  Nearby.Server.set_clock server (fun () -> !clock);
  ignore (Nearby.Server.join server ~client ~peer:0 ~attach_router:fx.map.leaves.(0));
  clock := 400.0;
  ignore (Nearby.Server.join server ~client ~peer:1 ~attach_router:fx.map.leaves.(1));
  Alcotest.(check (option (float 1e-9)))
    "peer 0 stamped at join time" (Some 0.0)
    (Nearby.Server.registration_time server 0);
  Alcotest.(check (option (float 1e-9)))
    "peer 1 stamped at join time" (Some 400.0)
    (Nearby.Server.registration_time server 1);
  Alcotest.(check int) "joins feed report_refresh" 2
    (Simkit.Trace.counter (Nearby.Server.trace server) "report_refresh");
  let tracker = Nearby.Staleness.create server in
  clock := 1000.0;
  let metrics = Simkit.Metrics.create () in
  let report = Nearby.Staleness.observe ~metrics tracker ~now:!clock in
  Alcotest.(check int) "both reports aged" 2 report.members;
  Alcotest.(check (float 1e-9)) "oldest is the t=0 report" 1000.0 report.oldest_ms;
  Alcotest.(check (float 1e-9)) "mean of 1000 and 600" 800.0 report.mean_ms;
  Alcotest.(check bool) "first observe has no rate window" true
    (Float.is_nan report.refresh_rate_hz);
  Alcotest.(check (option (float 1e-9)))
    "members gauge exported" (Some 2.0)
    (Simkit.Metrics.gauge metrics "staleness_members" ~labels:[]);
  (* A leave removes the stamp immediately; a refresh counts in the rate. *)
  Nearby.Server.leave server ~peer:0;
  clock := 3000.0;
  ignore (Nearby.Server.join server ~client ~peer:2 ~attach_router:fx.map.leaves.(2));
  let report = Nearby.Staleness.observe tracker ~now:!clock in
  Alcotest.(check int) "left peer stops contributing" 2 report.members;
  Alcotest.(check (float 1e-9)) "oldest is now the t=400 report" 2600.0 report.oldest_ms;
  (* One refresh (peer 2's join) over the 2 s since the last observe. *)
  Alcotest.(check (float 1e-9)) "refresh rate over the window" 0.5 report.refresh_rate_hz

(* --- Divergence episodes are edge-triggered ----------------------------- *)

let events_with ~detail recorder =
  Simkit.Flight_recorder.events recorder
  |> List.filter (fun (e : Simkit.Flight_recorder.event) ->
         e.kind = "cluster" && e.detail = detail)

let test_divergence_edges_once_per_episode () =
  let fx = fixture ~seed:42 () in
  let client = make_client fx in
  let recorder = Simkit.Flight_recorder.create ~capacity:64 () in
  let metrics = Simkit.Metrics.create () in
  let cluster =
    Nearby.Cluster.create ~detector_config ~recorder ~metrics ~transport:fx.transport
      ~client_router:fx.map.core.(0) ~make_server:(make_server fx)
      ~routers:fx.replica_routers ()
  in
  Alcotest.(check (list int)) "healthy cluster is consistent" []
    (Nearby.Cluster.digest_check cluster);
  (* Diverge replica 0 by registering on its server directly — the write
     never fans out, so replicas 1 and 2 miss it.  Replica 0 is then the
     most complete replica (the reference), and the others are divergent. *)
  ignore
    (Nearby.Server.join (Nearby.Cluster.server_of cluster 0) ~client ~peer:7
       ~attach_router:fx.map.leaves.(0));
  Simkit.Engine.schedule_at fx.engine ~time:100.0 (fun () ->
      Alcotest.(check (list int)) "replicas 1,2 divergent" [ 1; 2 ]
        (Nearby.Cluster.digest_check cluster);
      Alcotest.(check (option (float 1e-9)))
        "episode stopwatch started" (Some 100.0)
        (Nearby.Cluster.divergence_since cluster));
  Simkit.Engine.schedule_at fx.engine ~time:200.0 (fun () ->
      (* Still the same episode: no second edge, stopwatch unchanged. *)
      Alcotest.(check (list int)) "still divergent" [ 1; 2 ]
        (Nearby.Cluster.digest_check cluster);
      Alcotest.(check (option (float 1e-9)))
        "stopwatch not restarted" (Some 100.0)
        (Nearby.Cluster.divergence_since cluster);
      Alcotest.(check int) "one divergence edge so far" 1
        (List.length (events_with ~detail:"divergence" recorder)));
  Simkit.Engine.schedule_at fx.engine ~time:600.0 (fun () ->
      (* The repair: sync restores the stragglers and its closing check
         records the convergence edge. *)
      Nearby.Cluster.sync_round cluster);
  Simkit.Engine.schedule_at fx.engine ~time:700.0 (fun () ->
      Alcotest.(check (list int)) "consistent after repair" []
        (Nearby.Cluster.digest_check cluster);
      Alcotest.(check (option (float 1e-9)))
        "episode closed" None
        (Nearby.Cluster.divergence_since cluster));
  Simkit.Engine.run fx.engine ~until:1000.0;
  (match events_with ~detail:"divergence" recorder with
  | [ e ] ->
      Alcotest.(check (float 1e-9)) "divergence edge at first detection" 100.0 e.ts;
      Alcotest.(check (option string))
        "edge names the offending replicas" (Some "1,2")
        (match List.assoc_opt "replicas" e.args with
        | Some (Simkit.Span.Str s) -> Some s
        | _ -> None)
  | es -> Alcotest.fail (Printf.sprintf "%d divergence edges, expected 1" (List.length es)));
  (match events_with ~detail:"convergence" recorder with
  | [ e ] ->
      Alcotest.(check (float 1e-9)) "convergence edge at the repair" 600.0 e.ts
  | es -> Alcotest.fail (Printf.sprintf "%d convergence edges, expected 1" (List.length es)));
  (* The lag stream holds exactly the one closed episode: 100 → 600 ms. *)
  (match Simkit.Trace.summary (Nearby.Cluster.trace cluster) "cluster_antientropy_lag_ms" with
  | Some s ->
      Alcotest.(check int) "one lag sample" 1 s.count;
      Alcotest.(check (option (float 1e-6))) "lag = detection to repair" (Some 500.0) s.max
  | None -> Alcotest.fail "no anti-entropy lag stream");
  Alcotest.(check (option (float 1e-9)))
    "gauge back to zero" (Some 0.0)
    (Simkit.Metrics.gauge metrics "cluster_divergent_replicas" ~labels:[]);
  Alcotest.(check bool) "divergent checks counted" true
    (Simkit.Metrics.counter metrics "cluster_digest_checks_total"
       ~labels:[ ("result", "divergent") ]
    > 0);
  (* A second drift after convergence opens a second episode: a new edge. *)
  ignore
    (Nearby.Server.join (Nearby.Cluster.server_of cluster 1) ~client ~peer:8
       ~attach_router:fx.map.leaves.(1));
  ignore (Nearby.Cluster.digest_check cluster);
  Alcotest.(check int) "second episode, second edge" 2
    (List.length (events_with ~detail:"divergence" recorder))

(* --- The digest gate saves snapshot transfers --------------------------- *)

let kind_bytes metrics kind =
  Simkit.Metrics.series metrics
  |> List.fold_left
       (fun acc (name, labels, _) ->
         if name = "wire_bytes_total" && List.assoc_opt "kind" labels = Some kind then
           acc + Simkit.Metrics.counter metrics name ~labels
         else acc)
       0

let test_digest_gate_saves_snapshot_bytes () =
  let metrics = Simkit.Metrics.create () in
  let fx = fixture ~metrics ~seed:43 () in
  let client = make_client fx in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  let _, failed = run_joins fx protocol ~peers:10 ~k:3 ~horizon:30_000.0 in
  Alcotest.(check int) "loss-free joins all land" 0 failed;
  let skipped () = Simkit.Trace.counter (Nearby.Cluster.trace cluster) "cluster_sync_skipped" in
  let counter name = Simkit.Trace.counter (Nearby.Cluster.trace cluster) name in
  let restores () = counter "cluster_sync_restores" in
  (* Healthy fleet: every straggler's digest matches the source, so the
     round moves no snapshot bytes at all. *)
  Nearby.Cluster.sync_round cluster;
  Simkit.Engine.run fx.engine ~until:35_000.0;
  Alcotest.(check int) "both stragglers gated" 2 (skipped ());
  Alcotest.(check int) "no restores on a healthy fleet" 0 (restores ());
  Alcotest.(check int) "no snapshot bytes on the wire" 0 (kind_bytes metrics "snapshot");
  (* Diverge one replica; only then does anti-entropy pay for transfers. *)
  ignore
    (Nearby.Server.join (Nearby.Cluster.server_of cluster 0) ~client ~peer:99
       ~attach_router:fx.map.leaves.(0));
  Nearby.Cluster.sync_round cluster;
  Simkit.Engine.run fx.engine ~until:40_000.0;
  Alcotest.(check int) "divergent stragglers restored" 2 (restores ());
  (* Each straggler missed one entry: one bucket exchanged, one entry
     written, apiece. *)
  Alcotest.(check int) "one bucket per straggler" 2 (counter "cluster_sync_buckets");
  Alcotest.(check int) "one entry per straggler" 2 (counter "cluster_sync_repaired");
  Alcotest.(check bool) "snapshot bytes only for real drift" true
    (kind_bytes metrics "snapshot" > 0);
  Nearby.Cluster.check_invariants cluster;
  Alcotest.(check (list int)) "repair reconverged the fleet" []
    (Nearby.Cluster.digest_check cluster)

(* --- The health experiment end to end ----------------------------------- *)

let test_health_exp_invariants () =
  let config =
    {
      Eval.Health_exp.quick_config with
      routers = 400;
      peers = 120;
      arrival_window_ms = 4000.0;
      sync_period_ms = 1000.0;
      check_period_ms = 100.0;
      seed = 3;
    }
  in
  let r = Eval.Health_exp.run config in
  Alcotest.(check int) "every join issued" config.peers r.joins;
  Alcotest.(check int) "joins accounted" r.joins (r.completed + r.failed);
  Alcotest.(check bool) "losses retried to completion" true (r.completion_rate >= 0.95);
  Alcotest.(check int) "check results partition the checks" r.digest_checks
    (r.checks_consistent + r.checks_divergent);
  Alcotest.(check bool) "the burst caused divergence" true (r.divergence_episodes >= 1);
  Alcotest.(check int) "every episode closed" r.divergence_episodes r.convergence_episodes;
  Alcotest.(check int) "one lag sample per closed episode" r.divergence_episodes r.lag_count;
  Alcotest.(check bool) "detection latency sane" true
    (Float.is_nan r.detection_latency_ms || r.detection_latency_ms >= 0.0);
  Alcotest.(check bool) "digest gate saved transfers" true (r.sync_skipped >= 1);
  Alcotest.(check int) "converged at the horizon" 0 r.final_divergent;
  Alcotest.(check bool) "episodes balanced and closed" true r.converged;
  Alcotest.(check bool) "reports aged" true (r.report_age_oldest_ms >= r.report_age_p50_ms);
  Alcotest.(check bool) "every completion stamped somewhere" true
    (r.refresh_total >= r.completed)

(* --- The dashboard's health panel --------------------------------------- *)

let test_fleet_health_panel () =
  let config = { Eval.Fleet_obs.quick_config with routers = 400; peers = 40; seed = 4 } in
  let r, t = Eval.Fleet_obs.run config in
  Alcotest.(check bool) "digest polls ran" true (r.digest_checks > 0);
  Alcotest.(check int) "healthy fleet never diverges at rest" 0 r.divergent_replicas;
  Alcotest.(check bool) "report ages observed" true (r.report_age_oldest_ms >= 0.0);
  let frame = Eval.Fleet_obs.render t in
  let contains needle =
    let nl = String.length needle and hl = String.length frame in
    let rec scan i = i + nl <= hl && (String.sub frame i nl = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "frame mentions %S" needle) true (contains needle))
    [ "[health]"; "digest checks"; "staleness" ]

let suite =
  ( "health",
    [
      Alcotest.test_case "staleness tracking" `Quick test_staleness_tracking;
      Alcotest.test_case "divergence edges once per episode" `Quick
        test_divergence_edges_once_per_episode;
      Alcotest.test_case "digest gate saves snapshot bytes" `Quick
        test_digest_gate_saves_snapshot_bytes;
      Alcotest.test_case "health_exp invariants" `Slow test_health_exp_invariants;
      Alcotest.test_case "fleet health panel" `Quick test_fleet_health_panel;
    ] )
