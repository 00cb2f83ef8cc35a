(* The state-health experiment: does the cluster notice when its replicas
   drift apart, how fast does anti-entropy pull them back, and how stale do
   the served reports get while all that happens?

   One scenario, deterministic in the seed: peers join through the
   resilient RPC path while a loss burst over part of the arrival window
   drops replica fan-outs, so the replicas genuinely diverge.  A digest
   check polls at failure-detector-ish rate (finer than the sync period),
   which is what turns "the replicas differ" into a detection event with a
   timestamp; the periodic sync rounds repair the drift and close each
   divergence episode.  Everything reported is read back from the
   instruments a deployment would watch: the [cluster_divergent_replicas]
   gauge, the [cluster_digest_checks_total{result}] counters, the
   divergence/convergence flight-recorder edges, the
   ["cluster_antientropy_lag_ms"] stream and the report-age staleness
   quantiles. *)

type config = {
  routers : int;
  peers : int;
  k : int;
  replicas : int;
  loss : float;
  arrival_window_ms : float;
  sync_period_ms : float;
  check_period_ms : float;  (* digest-check poll period, << sync period *)
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 8_000;
    k = 5;
    replicas = 3;
    loss = 0.4;
    arrival_window_ms = 20_000.0;
    sync_period_ms = 2_000.0;
    check_period_ms = 250.0;
    seed = 1;
  }

let quick_config =
  { default_config with routers = 800; peers = 1_200; arrival_window_ms = 8_000.0 }

type result = {
  joins : int;
  completed : int;
  failed : int;
  completion_rate : float;
  digest_checks : int;
  checks_consistent : int;
  checks_divergent : int;
  divergence_episodes : int;  (* flight-recorder "divergence" edges *)
  convergence_episodes : int;  (* flight-recorder "convergence" edges *)
  max_divergent_replicas : int;
  detection_latency_ms : float;
      (* loss-burst onset to the first divergence edge; nan if none *)
  lag_count : int;  (* closed episodes measured by the lag stream *)
  lag_p50_ms : float;
  lag_max_ms : float;
  sync_rounds : int;
  sync_restores : int;
  sync_skipped : int;
  sync_bytes : int;
  snapshot_wire_bytes : int;
  report_age_p50_ms : float;
  report_age_p90_ms : float;
  report_age_p99_ms : float;
  report_age_oldest_ms : float;
  refresh_total : int;
  refresh_rate_hz : float;
  final_divergent : int;  (* gauge reading after the last check *)
  converged : bool;  (* every episode closed and the end-state agrees *)
}

let run (config : config) =
  if config.replicas < 2 then invalid_arg "Health_exp: divergence needs >= 2 replicas";
  if config.loss <= 0.0 || config.loss >= 1.0 then
    invalid_arg "Health_exp: loss outside (0, 1)";
  if config.check_period_ms <= 0.0 then invalid_arg "Health_exp: check period must be positive";
  let run_config =
    {
      Cluster_run.routers = config.routers;
      peers = config.peers;
      k = config.k;
      replicas = config.replicas;
      arrival_window_ms = config.arrival_window_ms;
      sync_period_ms = config.sync_period_ms;
      drain_ms = 0.0;
      seed = config.seed;
    }
  in
  let metrics = Simkit.Metrics.create () in
  let recorder = Simkit.Flight_recorder.create ~capacity:4096 () in
  let loss_start, loss_end = Cluster_run.fault_window run_config in
  let run =
    Cluster_run.create ~metrics ~recorder
      ~fault:(fun _ ->
        Simkit.Fault.loss_burst ~from_ms:loss_start ~until_ms:loss_end ~loss:config.loss ())
      run_config
  in
  let cluster = run.cluster in
  (* The detection poll: much finer than the sync period, so an episode's
     opening edge carries a timestamp close to when the drift happened, not
     just "sometime before the next repair". *)
  let max_divergent = ref 0 in
  Cluster_run.every run ~period_ms:config.check_period_ms (fun () ->
      let divergent = Nearby.Cluster.digest_check cluster in
      max_divergent := max !max_divergent (List.length divergent));
  Cluster_run.arrivals run;
  Cluster_run.settle run;
  let final_divergent = List.length (Nearby.Cluster.digest_check cluster) in
  let ctrace = Nearby.Cluster.trace cluster in
  let counter = Simkit.Trace.counter ctrace in
  let check_count result =
    Simkit.Metrics.counter metrics "cluster_digest_checks_total" ~labels:[ ("result", result) ]
  in
  let edges detail =
    List.length
      (List.filter
         (fun (e : Simkit.Flight_recorder.event) -> e.kind = "cluster" && e.detail = detail)
         (Simkit.Flight_recorder.events recorder))
  in
  (* First divergence edge at or after the loss onset: fine polling also
     catches transient in-flight replication (a fan-out between send and
     delivery), so edges before the burst exist and are not what the burst
     caused. *)
  let detection_latency_ms =
    Simkit.Flight_recorder.events recorder
    |> List.find_opt (fun (e : Simkit.Flight_recorder.event) ->
           e.kind = "cluster" && e.detail = "divergence" && e.ts >= loss_start)
    |> function
    | Some e -> e.ts -. loss_start
    | None -> Float.nan
  in
  let lag = Simkit.Trace.summary ctrace "cluster_antientropy_lag_ms" in
  (* Fleet staleness at the horizon. *)
  let fleet_ages, oldest = Cluster_run.staleness run in
  let age q =
    if Prelude.Sketch.is_empty fleet_ages then Float.nan else Prelude.Sketch.quantile fleet_ages q
  in
  let refresh_total =
    Simkit.Trace.counter (Nearby.Cluster.fleet_trace cluster) "report_refresh"
  in
  let divergence_episodes = edges "divergence" in
  let convergence_episodes = edges "convergence" in
  {
    joins = config.peers;
    completed = run.completed;
    failed = run.failed;
    completion_rate =
      (if config.peers = 0 then Float.nan
       else float_of_int run.completed /. float_of_int config.peers);
    digest_checks = counter "cluster_digest_checks";
    checks_consistent = check_count "consistent";
    checks_divergent = check_count "divergent";
    divergence_episodes;
    convergence_episodes;
    max_divergent_replicas = !max_divergent;
    detection_latency_ms;
    lag_count = (match lag with Some s -> s.count | None -> 0);
    lag_p50_ms = (match lag with Some s -> s.p50 | None -> Float.nan);
    lag_max_ms = (match lag with Some s -> Option.value s.max ~default:Float.nan | None -> Float.nan);
    sync_rounds = counter "cluster_sync_rounds";
    sync_restores = counter "cluster_sync_restores";
    sync_skipped = counter "cluster_sync_skipped";
    sync_bytes = counter "cluster_sync_bytes";
    snapshot_wire_bytes = Cluster_run.(kind_bytes (wire_kinds metrics) "snapshot");
    report_age_p50_ms = age 0.5;
    report_age_p90_ms = age 0.9;
    report_age_p99_ms = age 0.99;
    report_age_oldest_ms = oldest;
    refresh_total;
    refresh_rate_hz = float_of_int refresh_total /. (run.horizon /. 1000.0);
    final_divergent;
    converged = final_divergent = 0 && divergence_episodes = convergence_episodes;
  }

(* --- Rendering ---------------------------------------------------------- *)

let result_json (r : result) =
  let fl v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  Printf.sprintf
    {|{"joins": %d, "completed": %d, "failed": %d, "completion_rate": %.4f, "digest_checks": %d, "checks_consistent": %d, "checks_divergent": %d, "divergence_episodes": %d, "convergence_episodes": %d, "max_divergent_replicas": %d, "detection_latency_ms": %s, "lag_count": %d, "lag_p50_ms": %s, "lag_max_ms": %s, "sync_rounds": %d, "sync_restores": %d, "sync_skipped": %d, "sync_bytes": %d, "snapshot_wire_bytes": %d, "report_age_p50_ms": %s, "report_age_p90_ms": %s, "report_age_p99_ms": %s, "report_age_oldest_ms": %s, "refresh_total": %d, "refresh_rate_hz": %s, "final_divergent": %d, "converged": %b}|}
    r.joins r.completed r.failed r.completion_rate r.digest_checks r.checks_consistent
    r.checks_divergent r.divergence_episodes r.convergence_episodes r.max_divergent_replicas
    (fl r.detection_latency_ms) r.lag_count (fl r.lag_p50_ms) (fl r.lag_max_ms) r.sync_rounds
    r.sync_restores r.sync_skipped r.sync_bytes r.snapshot_wire_bytes (fl r.report_age_p50_ms)
    (fl r.report_age_p90_ms) (fl r.report_age_p99_ms) (fl r.report_age_oldest_ms)
    r.refresh_total (fl r.refresh_rate_hz) r.final_divergent r.converged

let gates (r : result) =
  Regression.
    [
      gate "health/completion_rate" r.completion_rate Higher_better 0.02;
      (* Structural: the loss burst produces a detected divergence episode,
         every episode closes, and anti-entropy pays for real repairs while
         the digest gate saves transfers on the healthy rounds. *)
      flag "health/divergence_detected" (r.divergence_episodes > 0);
      flag "health/episodes_closed" (r.divergence_episodes = r.convergence_episodes);
      flag "health/converged" r.converged;
      gate "health/detection_latency_ms" r.detection_latency_ms Lower_better 0.5;
      gate "health/lag_p50_ms" r.lag_p50_ms Lower_better 0.5;
      gate "health/report_age_p50_ms" r.report_age_p50_ms Lower_better 0.25;
      flag "health/digest_gate_saves_transfers" (r.sync_skipped > 0);
      flag "health/check_read_divergent" (r.checks_divergent >= 1);
      flag "health/replica_diverged" (r.max_divergent_replicas >= 1);
      flag "health/lag_per_episode" (r.lag_count = r.divergence_episodes);
      flag "health/straggler_restored" (r.sync_restores >= 1);
      flag "health/snapshot_bytes_on_wire" (r.snapshot_wire_bytes > 0);
      flag "health/refreshes_cover_joins" (r.refresh_total >= r.completed);
      flag "health/report_age_ordered"
        (0.0 <= r.report_age_p50_ms
        && r.report_age_p50_ms <= r.report_age_p99_ms
        && r.report_age_p99_ms <= r.report_age_oldest_ms);
    ]

let print (r : result) =
  Printf.printf "Health: joins=%d completed=%d episodes=%d converged=%b\n" r.joins r.completed
    r.divergence_episodes r.converged;
  Prelude.Table.print
    ~header:[ "metric"; "value" ]
    [
      [ "digest checks"; string_of_int r.digest_checks ];
      [ "checks consistent"; string_of_int r.checks_consistent ];
      [ "checks divergent"; string_of_int r.checks_divergent ];
      [ "divergence episodes"; string_of_int r.divergence_episodes ];
      [ "convergence episodes"; string_of_int r.convergence_episodes ];
      [ "max divergent replicas"; string_of_int r.max_divergent_replicas ];
      [ "detection latency ms"; Prelude.Table.float_cell ~decimals:1 r.detection_latency_ms ];
      [ "anti-entropy lag p50 ms"; Prelude.Table.float_cell ~decimals:1 r.lag_p50_ms ];
      [ "anti-entropy lag max ms"; Prelude.Table.float_cell ~decimals:1 r.lag_max_ms ];
      [ "sync rounds"; string_of_int r.sync_rounds ];
      [ "sync restores"; string_of_int r.sync_restores ];
      [ "sync skipped (digest gate)"; string_of_int r.sync_skipped ];
      [ "sync bytes"; string_of_int r.sync_bytes ];
      [ "snapshot wire bytes"; string_of_int r.snapshot_wire_bytes ];
      [ "report age p50 ms"; Prelude.Table.float_cell ~decimals:1 r.report_age_p50_ms ];
      [ "report age p90 ms"; Prelude.Table.float_cell ~decimals:1 r.report_age_p90_ms ];
      [ "report age p99 ms"; Prelude.Table.float_cell ~decimals:1 r.report_age_p99_ms ];
      [ "report age oldest ms"; Prelude.Table.float_cell ~decimals:1 r.report_age_oldest_ms ];
      [ "refreshes"; string_of_int r.refresh_total ];
      [ "refresh rate hz"; Prelude.Table.float_cell ~decimals:2 r.refresh_rate_hz ];
      [ "final divergent"; string_of_int r.final_divergent ];
    ]
