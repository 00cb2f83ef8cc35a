(* Command-line driver: run any experiment from DESIGN.md's index with
   configurable size, either at the paper-scale default or in quick mode. *)

open Cmdliner

let quick_flag =
  let doc = "Run a reduced configuration (smaller map, fewer seeds)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let seed_opt =
  let doc = "Override the base random seed." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~doc)

let routers_opt =
  let doc = "Override the router-map size." in
  Arg.(value & opt (some int) None & info [ "routers" ] ~doc)

let peers_opt =
  let doc = "Override the peer population." in
  Arg.(value & opt (some int) None & info [ "peers" ] ~doc)

let k_opt =
  let doc = "Override the number of neighbors requested per peer." in
  Arg.(value & opt (some int) None & info [ "k" ] ~doc)

let audit_rate_opt =
  let doc =
    "Audit this fraction of neighbor replies online against BFS ground truth (0 disables, 1 \
     audits everything)."
  in
  Arg.(value & opt float 0.0 & info [ "audit-rate" ] ~doc ~docv:"RATE")

let slo_opt =
  let doc =
    "Declare a service-level objective (repeatable), e.g. $(b,join_p99_ms=500), \
     $(b,audit_recall_at_k>=0.9) or $(b,join_completed/join_started>=0.99)."
  in
  Arg.(value & opt_all string [] & info [ "slo" ] ~doc ~docv:"SPEC")

let flight_out_opt =
  let doc = "Dump the flight recorder (recent RPC/fault/cluster/SLO events) as JSONL to $(docv)." in
  Arg.(value & opt (some string) None & info [ "flight-out" ] ~doc ~docv:"FILE")

let prom_out_opt =
  let doc = "Write the metrics snapshot in Prometheus text exposition format to $(docv)." in
  Arg.(value & opt (some string) None & info [ "prom-out" ] ~doc ~docv:"FILE")

let parse_slos specs =
  List.fold_left
    (fun acc spec ->
      match (acc, Simkit.Slo.of_string spec) with
      | Error e, _ -> Error e
      | Ok parsed, Ok s -> Ok (s :: parsed)
      | Ok _, Error e -> Error e)
    (Ok []) specs
  |> Result.map List.rev

let override v f config = match v with Some x -> f config x | None -> config

let exit_ok = `Ok ()

let fig2_cmd =
  let run quick seed routers k =
    let config = if quick then Eval.Fig2.quick_config else Eval.Fig2.default_config in
    let config = match seed with Some s -> { config with seeds = [ s ] } | None -> config in
    let config = override routers (fun c v -> { c with Eval.Fig2.routers = v }) config in
    let config = override k (fun c v -> { c with Eval.Fig2.k = v }) config in
    Eval.Fig2.print (Eval.Fig2.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Reproduce the paper's measured figure: quality ratios vs population.")
    Term.(ret (const run $ quick_flag $ seed_opt $ routers_opt $ k_opt))

let landmarks_cmd =
  let run quick seed routers peers k =
    let config = if quick then Eval.Landmark_sweep.quick_config else Eval.Landmark_sweep.default_config in
    let config = match seed with Some s -> { config with seeds = [ s ] } | None -> config in
    let config = override routers (fun c v -> { c with Eval.Landmark_sweep.routers = v }) config in
    let config = override peers (fun c v -> { c with Eval.Landmark_sweep.peers = v }) config in
    let config = override k (fun c v -> { c with Eval.Landmark_sweep.k = v }) config in
    Eval.Landmark_sweep.print (Eval.Landmark_sweep.run config);
    print_newline ();
    Eval.Landmark_sweep.print_ablation (Eval.Landmark_sweep.run_round1_ablation config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "landmarks" ~doc:"E1: sweep landmark count and placement policy.")
    Term.(ret (const run $ quick_flag $ seed_opt $ routers_opt $ peers_opt $ k_opt))

let superpeers_cmd =
  let run quick seed routers peers k =
    let config = if quick then Eval.Super_peer_exp.quick_config else Eval.Super_peer_exp.default_config in
    let config = match seed with Some s -> { config with seeds = [ s ] } | None -> config in
    let config = override routers (fun c v -> { c with Eval.Super_peer_exp.routers = v }) config in
    let config = override peers (fun c v -> { c with Eval.Super_peer_exp.peers = v }) config in
    let config = override k (fun c v -> { c with Eval.Super_peer_exp.k = v }) config in
    Eval.Super_peer_exp.print (Eval.Super_peer_exp.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "superpeers" ~doc:"E2: super-peer delegation vs centralized server.")
    Term.(ret (const run $ quick_flag $ seed_opt $ routers_opt $ peers_opt $ k_opt))

let churn_cmd =
  let run quick seed =
    let config = if quick then Eval.Churn_exp.quick_config else Eval.Churn_exp.default_config in
    let config = match seed with Some s -> { config with seed = s } | None -> config in
    Eval.Churn_exp.print (Eval.Churn_exp.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "churn" ~doc:"E3: quality under churn, crashes and handover.")
    Term.(ret (const run $ quick_flag $ seed_opt))

let truncate_cmd =
  let run quick seed routers peers k =
    let config = if quick then Eval.Truncate_exp.quick_config else Eval.Truncate_exp.default_config in
    let config = match seed with Some s -> { config with seeds = [ s ] } | None -> config in
    let config = override routers (fun c v -> { c with Eval.Truncate_exp.routers = v }) config in
    let config = override peers (fun c v -> { c with Eval.Truncate_exp.peers = v }) config in
    let config = override k (fun c v -> { c with Eval.Truncate_exp.k = v }) config in
    Eval.Truncate_exp.print (Eval.Truncate_exp.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "truncate" ~doc:"E4: decreased traceroute - quality vs probe cost.")
    Term.(ret (const run $ quick_flag $ seed_opt $ routers_opt $ peers_opt $ k_opt))

let setup_delay_cmd =
  let run quick seed =
    let config = if quick then Eval.Setup_delay.quick_config else Eval.Setup_delay.default_config in
    let config = match seed with Some s -> { config with seed = s } | None -> config in
    Eval.Setup_delay.print (Eval.Setup_delay.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "setup-delay" ~doc:"E5: setup delay vs quality against Vivaldi and GNP.")
    Term.(ret (const run $ quick_flag $ seed_opt))

let complexity_cmd =
  let run quick seed =
    let config = if quick then Eval.Complexity.quick_config else Eval.Complexity.default_config in
    let config = match seed with Some s -> { config with seed = s } | None -> config in
    Eval.Complexity.print (Eval.Complexity.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "complexity" ~doc:"Path-tree insert/query cost vs population (the O(log n)/O(1) claim).")
    Term.(ret (const run $ quick_flag $ seed_opt))

let metric_cmd =
  let run quick seed =
    let config = if quick then Eval.Metric_ablation.quick_config else Eval.Metric_ablation.default_config in
    let config = match seed with Some s -> { config with seeds = [ s ] } | None -> config in
    Eval.Metric_ablation.print (Eval.Metric_ablation.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "metric" ~doc:"Ablation: hop-count dtree vs latency-weighted dtree.")
    Term.(ret (const run $ quick_flag $ seed_opt))

let streaming_cmd =
  let run quick seed routers peers k =
    let config = if quick then Eval.Streaming_exp.quick_config else Eval.Streaming_exp.default_config in
    let config = match seed with Some s -> { config with seed = s } | None -> config in
    let config = override routers (fun c v -> { c with Eval.Streaming_exp.routers = v }) config in
    let config = override peers (fun c v -> { c with Eval.Streaming_exp.peers = v }) config in
    let config = override k (fun c v -> { c with Eval.Streaming_exp.k = v }) config in
    Eval.Streaming_exp.print (Eval.Streaming_exp.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "streaming" ~doc:"Mesh live streaming under different neighbor selectors.")
    Term.(ret (const run $ quick_flag $ seed_opt $ routers_opt $ peers_opt $ k_opt))

let stretch_cmd =
  let run quick seed =
    let config = if quick then Eval.Stretch_analysis.quick_config else Eval.Stretch_analysis.default_config in
    let config = match seed with Some s -> { config with seed = s } | None -> config in
    Eval.Stretch_analysis.print (Eval.Stretch_analysis.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "stretch" ~doc:"Graph-oriented analysis of dtree vs true distance.")
    Term.(ret (const run $ quick_flag $ seed_opt))

let maintenance_cmd =
  let run quick seed =
    let config = if quick then Eval.Maintenance_exp.quick_config else Eval.Maintenance_exp.default_config in
    let config = match seed with Some s -> { config with seed = s } | None -> config in
    Eval.Maintenance_exp.print (Eval.Maintenance_exp.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "maintenance" ~doc:"Neighbor-set decay under churn, frozen vs refreshed.")
    Term.(ret (const run $ quick_flag $ seed_opt))

let topologies_cmd =
  let run quick seed =
    let config =
      if quick then Eval.Topology_sensitivity.quick_config else Eval.Topology_sensitivity.default_config
    in
    let config = match seed with Some s -> { config with seeds = [ s ] } | None -> config in
    Eval.Topology_sensitivity.print (Eval.Topology_sensitivity.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "topologies" ~doc:"Quality across map families (heavy tail vs homogeneous).")
    Term.(ret (const run $ quick_flag $ seed_opt))

let dht_cmd =
  let run quick seed routers peers k =
    let config = if quick then Eval.Dht_exp.quick_config else Eval.Dht_exp.default_config in
    let config = match seed with Some s -> { config with seed = s } | None -> config in
    let config = override routers (fun c v -> { c with Eval.Dht_exp.routers = v }) config in
    let config = override peers (fun c v -> { c with Eval.Dht_exp.peers = v }) config in
    let config = override k (fun c v -> { c with Eval.Dht_exp.k = v }) config in
    Eval.Dht_exp.print (Eval.Dht_exp.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "dht" ~doc:"Decentralize the management server over a Chord DHT.")
    Term.(ret (const run $ quick_flag $ seed_opt $ routers_opt $ peers_opt $ k_opt))

let inflation_cmd =
  let run quick seed =
    let config = if quick then Eval.Inflation_exp.quick_config else Eval.Inflation_exp.default_config in
    let config = match seed with Some s -> { config with seed = s } | None -> config in
    Eval.Inflation_exp.print (Eval.Inflation_exp.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "inflation" ~doc:"Robustness to policy routing (path inflation).")
    Term.(ret (const run $ quick_flag $ seed_opt))

let bulk_cmd =
  let run quick seed =
    let config = if quick then Eval.Bulk_exp.quick_config else Eval.Bulk_exp.default_config in
    let config = match seed with Some s -> { config with seed = s } | None -> config in
    Eval.Bulk_exp.print (Eval.Bulk_exp.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "bulk" ~doc:"Bulk file-swarm distribution under different selectors.")
    Term.(ret (const run $ quick_flag $ seed_opt))

let joining_cmd =
  let run quick seed =
    let config = if quick then Eval.Joining_exp.quick_config else Eval.Joining_exp.default_config in
    let config = match seed with Some s -> { config with seed = s } | None -> config in
    Eval.Joining_exp.print (Eval.Joining_exp.run config);
    exit_ok
  in
  Cmd.v
    (Cmd.info "joining" ~doc:"Newcomer time-to-playback mid-stream (the paper's thesis, end to end).")
    Term.(ret (const run $ quick_flag $ seed_opt))

let resilience_cmd =
  let scenario_arg =
    let doc =
      Printf.sprintf "Fault scenario to inject (%s)."
        (String.concat " | " Eval.Resilience_exp.scenario_names)
    in
    Arg.(value & opt string "crash-primary" & info [ "scenario" ] ~doc ~docv:"SCENARIO")
  in
  let replicas_arg =
    let doc = "Number of management-server replicas." in
    Arg.(value & opt int 3 & info [ "replicas" ] ~doc ~docv:"N")
  in
  let loss_arg =
    let doc = "Baseline packet-loss probability, in [0, 1)." in
    Arg.(value & opt float 0.0 & info [ "loss" ] ~doc ~docv:"P")
  in
  let require_complete_arg =
    let doc = "Exit with an error unless every join completes (CI smoke gate)." in
    Arg.(value & flag & info [ "require-complete" ] ~doc)
  in
  let json_out_arg =
    let doc = "Also write the result as a JSON object to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json-out" ] ~doc ~docv:"FILE")
  in
  let metrics_out_arg =
    let doc =
      "Write a JSON metrics snapshot (resilience / rpc / cluster / transport sections plus the \
       windowed timeseries) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")
  in
  let trace_out_arg =
    let doc =
      "Write the run's causal span trees (one root join span per peer, with RPC attempts, \
       server-side registration and replication fan-out as children) as Chrome trace-event \
       JSONL to $(docv).  Feed the file to $(b,nearby_sim trace) for a critical-path report."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")
  in
  let run quick seed routers peers k scenario replicas loss require_complete json_out slos
      audit_rate flight_out metrics_out prom_out trace_out =
    match parse_slos slos with
    | Error e -> `Error (false, e)
    | Ok slos -> (
        let config =
          if quick then Eval.Resilience_exp.quick_config else Eval.Resilience_exp.default_config
        in
        let config = match seed with Some s -> { config with seed = s } | None -> config in
        let config = override routers (fun c v -> { c with Eval.Resilience_exp.routers = v }) config in
        let config = override peers (fun c v -> { c with Eval.Resilience_exp.peers = v }) config in
        let config = override k (fun c v -> { c with Eval.Resilience_exp.k = v }) config in
        let config =
          { config with Eval.Resilience_exp.scenario; replicas; loss; slos; audit_rate }
        in
        let spans =
          match trace_out with Some _ -> Simkit.Span.buffer () | None -> Simkit.Span.noop
        in
        match Eval.Resilience_exp.run_instrumented ~spans config with
        | result, artifacts ->
            Eval.Resilience_exp.print result;
            List.iter
              (fun st -> print_endline ("SLO " ^ Simkit.Slo.status_line st))
              artifacts.Eval.Resilience_exp.slo_statuses;
            (match json_out with
            | Some file ->
                let out = open_out file in
                output_string out (Eval.Resilience_exp.result_json result);
                output_char out '\n';
                close_out out;
                Printf.printf "wrote %s\n%!" file
            | None -> ());
            let sections =
              [
                ("resilience", artifacts.Eval.Resilience_exp.exp_trace);
                ("rpc", artifacts.Eval.Resilience_exp.rpc_trace);
                ("cluster", artifacts.Eval.Resilience_exp.cluster_trace);
                ( "transport",
                  Simkit.Trace.of_counters artifacts.Eval.Resilience_exp.transport_counters );
              ]
              @
              match artifacts.Eval.Resilience_exp.audit_trace with
              | Some t -> [ ("audit", t) ]
              | None -> []
            in
            (match metrics_out with
            | Some file ->
                let meta =
                  Simkit.Export.capture_meta ~seed:config.Eval.Resilience_exp.seed
                    ~extra:
                      [
                        ("scenario", config.Eval.Resilience_exp.scenario);
                        ("replicas", string_of_int replicas);
                      ]
                    ()
                in
                Simkit.Export.write_file file
                  (Simkit.Export.metrics_json ~meta
                     ~timeseries:[ ("resilience", artifacts.Eval.Resilience_exp.timeseries) ]
                     sections);
                Printf.printf "wrote metrics snapshot to %s\n%!" file
            | None -> ());
            (match prom_out with
            | Some file ->
                Simkit.Export.write_file file (Simkit.Export.prometheus sections);
                Printf.printf "wrote Prometheus exposition to %s\n%!" file
            | None -> ());
            (match flight_out with
            | Some file ->
                Simkit.Flight_recorder.write artifacts.Eval.Resilience_exp.recorder file;
                Printf.printf "wrote %d flight-recorder events to %s\n%!"
                  (Simkit.Flight_recorder.count artifacts.Eval.Resilience_exp.recorder)
                  file
            | None -> ());
            (match trace_out with
            | Some file ->
                Simkit.Span.write_jsonl [ spans ] file;
                Printf.printf "wrote %d span events to %s\n%!" (Simkit.Span.event_count spans)
                  file
            | None -> ());
            if require_complete && result.completed < result.joins then
              `Error
                ( false,
                  Printf.sprintf "join completion %d/%d under scenario %s" result.completed
                    result.joins result.scenario )
            else exit_ok
        | exception Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Fault-injection run: joins through the retrying RPC layer against a replicated \
          server cluster while a scripted scenario crashes replicas, raises loss or \
          partitions the network.")
    Term.(
      ret
        (const run $ quick_flag $ seed_opt $ routers_opt $ peers_opt $ k_opt $ scenario_arg
       $ replicas_arg $ loss_arg $ require_complete_arg $ json_out_arg $ slo_opt
       $ audit_rate_opt $ flight_out_opt $ metrics_out_arg $ prom_out_opt $ trace_out_arg))

let load_cmd =
  let arrival_arg =
    let doc = "Arrival process: $(b,poisson), $(b,diurnal) or $(b,flash)." in
    Arg.(value & opt string "flash" & info [ "arrival" ] ~doc ~docv:"PROCESS")
  in
  let rate_arg =
    let doc = "Base arrival rate, peers per second." in
    Arg.(value & opt (some float) None & info [ "rate" ] ~doc ~docv:"R")
  in
  let spike_rate_arg =
    let doc = "Flash-crowd spike rate, peers per second (flash only)." in
    Arg.(value & opt (some float) None & info [ "spike-rate" ] ~doc ~docv:"R")
  in
  let spike_at_arg =
    let doc = "Flash-crowd spike onset, seconds into the run (flash only)." in
    Arg.(value & opt float 2.0 & info [ "spike-at" ] ~doc ~docv:"S")
  in
  let spike_len_arg =
    let doc = "Flash-crowd spike length, seconds (flash only)." in
    Arg.(value & opt float 4.0 & info [ "spike-len" ] ~doc ~docv:"S")
  in
  let amplitude_arg =
    let doc = "Diurnal modulation amplitude in [0, 1] (diurnal only)." in
    Arg.(value & opt float 0.5 & info [ "amplitude" ] ~doc ~docv:"A")
  in
  let period_arg =
    let doc = "Diurnal period, seconds (diurnal only)." in
    Arg.(value & opt float 60.0 & info [ "period" ] ~doc ~docv:"S")
  in
  let duration_arg =
    let doc = "Arrival window in milliseconds (the run continues until the queue drains)." in
    Arg.(value & opt (some float) None & info [ "duration" ] ~doc ~docv:"MS")
  in
  let service_rate_arg =
    let doc = "Server service rate, registrations per second." in
    Arg.(value & opt (some float) None & info [ "service-rate" ] ~doc ~docv:"R")
  in
  let queue_cap_arg =
    let doc = "Admission queue capacity." in
    Arg.(value & opt (some int) None & info [ "queue-cap" ] ~doc ~docv:"N")
  in
  let batch_arg =
    let doc = "Registrations drained per service tick." in
    Arg.(value & opt (some int) None & info [ "batch" ] ~doc ~docv:"N")
  in
  let policy_arg =
    let doc =
      Printf.sprintf "Shedding policy (%s)." (String.concat " | " Eval.Load_exp.policies)
    in
    Arg.(value & opt string "slo" & info [ "shed-policy" ] ~doc ~docv:"POLICY")
  in
  let deadline_arg =
    let doc = "Deadline policy bound in ms (default 0.8 x the SLO budget)." in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~doc ~docv:"MS")
  in
  let wait_budget_arg =
    let doc = "SLO shedder's queueing-delay p99 limit in ms (default 0.15 x the SLO budget)." in
    Arg.(value & opt (some float) None & info [ "wait-budget-ms" ] ~doc ~docv:"MS")
  in
  let slo_budget_arg =
    let doc = "Admitted-join p99 budget in ms the result is judged against." in
    Arg.(value & opt (some float) None & info [ "slo-budget-ms" ] ~doc ~docv:"MS")
  in
  let session_arg =
    let doc = "Mean session length in ms before a peer departs (0 disables churn)." in
    Arg.(value & opt float 0.0 & info [ "session-mean-ms" ] ~doc ~docv:"MS")
  in
  let mobility_arg =
    let doc =
      "Fraction of departures that are regional-mobility handovers (re-join near another \
       landmark) rather than graceful leaves."
    in
    Arg.(value & opt float 0.0 & info [ "mobility" ] ~doc ~docv:"F")
  in
  let json_out_arg =
    let doc = "Also write the result as a JSON object to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json-out" ] ~doc ~docv:"FILE")
  in
  let metrics_out_arg =
    let doc =
      "Write a JSON metrics snapshot (experiment / server sections, the admission queue's \
       labeled series and the windowed timeseries) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")
  in
  let require_complete_arg =
    let doc = "Exit with an error unless every admitted join completes (CI smoke gate)." in
    Arg.(value & flag & info [ "require-complete" ] ~doc)
  in
  let run quick seed routers k arrival rate spike_rate spike_at spike_len amplitude period
      duration service_rate queue_cap batch policy deadline_ms wait_budget_ms slo_budget_ms
      session_mean_ms mobility require_complete json_out flight_out metrics_out prom_out =
    let config = if quick then Eval.Load_exp.quick_config else Eval.Load_exp.default_config in
    let config = match seed with Some s -> { config with Eval.Load_exp.seed = s } | None -> config in
    let config = override routers (fun c v -> { c with Eval.Load_exp.routers = v }) config in
    let config = override k (fun c v -> { c with Eval.Load_exp.k = v }) config in
    let config = override duration (fun c v -> { c with Eval.Load_exp.duration_ms = v }) config in
    let config =
      override service_rate (fun (c : Eval.Load_exp.config) v -> { c with service_rate_per_s = v }) config
    in
    let config = override queue_cap (fun c v -> { c with Eval.Load_exp.queue_cap = v }) config in
    let config = override batch (fun c v -> { c with Eval.Load_exp.batch = v }) config in
    let config =
      override slo_budget_ms (fun (c : Eval.Load_exp.config) v -> { c with slo_budget_ms = v }) config
    in
    let service = config.Eval.Load_exp.service_rate_per_s in
    let arrival_process =
      (* Defaults put the flash peak (and the diurnal crest) at 2x the
         service rate so the headline comparison works out of the box. *)
      match arrival with
      | "poisson" ->
          Ok
            (Simkit.Workload.Poisson
               { rate_per_s = Option.value rate ~default:(0.8 *. service) })
      | "diurnal" ->
          Ok
            (Simkit.Workload.Diurnal
               {
                 base_per_s = Option.value rate ~default:(2.0 *. service /. (1.0 +. amplitude));
                 amplitude;
                 period_s = period;
               })
      | "flash" ->
          Ok
            (Simkit.Workload.Flash
               {
                 base_per_s = Option.value rate ~default:(0.25 *. service);
                 spike_per_s = Option.value spike_rate ~default:(2.0 *. service);
                 spike_at_s = spike_at;
                 spike_len_s = spike_len;
               })
      | other -> Error (Printf.sprintf "unknown arrival process %S (poisson|diurnal|flash)" other)
    in
    match arrival_process with
    | Error e -> `Error (false, e)
    | Ok arrival -> (
        let config =
          {
            config with
            Eval.Load_exp.arrival;
            policy;
            deadline_ms;
            wait_budget_ms;
            churn =
              (if session_mean_ms <= 0.0 then Simkit.Workload.no_churn
               else
                 {
                   Simkit.Workload.session =
                     Some (Simkit.Churn.Exponential { mean_ms = session_mean_ms });
                   mobility_fraction = mobility;
                 });
          }
        in
        match Eval.Load_exp.run_instrumented config with
        | result, artifacts ->
            Eval.Load_exp.print result;
            (match json_out with
            | Some file ->
                Simkit.Export.write_file file (Eval.Load_exp.result_json result ^ "\n");
                Printf.printf "wrote %s\n%!" file
            | None -> ());
            let sections =
              [
                ("load", artifacts.Eval.Load_exp.exp_trace);
                ("server", artifacts.Eval.Load_exp.server_trace);
              ]
            in
            (match metrics_out with
            | Some file ->
                let meta =
                  Simkit.Export.capture_meta ~seed:config.Eval.Load_exp.seed
                    ~extra:
                      [
                        ("arrival", Simkit.Workload.describe arrival);
                        ("policy", policy);
                      ]
                    ()
                in
                Simkit.Export.write_file file
                  (Simkit.Export.metrics_json ~meta
                     ~timeseries:[ ("load", artifacts.Eval.Load_exp.timeseries) ]
                     ~labeled:[ ("admission", artifacts.Eval.Load_exp.metrics) ]
                     sections);
                Printf.printf "wrote metrics snapshot to %s\n%!" file
            | None -> ());
            (match prom_out with
            | Some file ->
                Simkit.Export.write_file file
                  (Simkit.Export.prometheus sections
                  ^ Simkit.Export.prometheus_labeled
                      [ ("admission", artifacts.Eval.Load_exp.metrics) ]);
                Printf.printf "wrote Prometheus exposition to %s\n%!" file
            | None -> ());
            (match flight_out with
            | Some file ->
                Simkit.Flight_recorder.write artifacts.Eval.Load_exp.recorder file;
                Printf.printf "wrote %d flight-recorder events to %s\n%!"
                  (Simkit.Flight_recorder.count artifacts.Eval.Load_exp.recorder)
                  file
            | None -> ());
            if require_complete && result.Eval.Load_exp.completed < result.Eval.Load_exp.admitted
            then
              `Error
                ( false,
                  Printf.sprintf "admitted-join completion %d/%d under policy %s"
                    result.Eval.Load_exp.completed result.Eval.Load_exp.admitted policy )
            else exit_ok
        | exception Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Open-loop load run: a Poisson / diurnal / flash-crowd arrival process drives joins \
          through a bounded admission queue with a configurable shedding policy (drop-tail, \
          deadline expiry, or SLO-burn-driven).")
    Term.(
      ret
        (const run $ quick_flag $ seed_opt $ routers_opt $ k_opt $ arrival_arg $ rate_arg
       $ spike_rate_arg $ spike_at_arg $ spike_len_arg $ amplitude_arg $ period_arg
       $ duration_arg $ service_rate_arg $ queue_cap_arg $ batch_arg $ policy_arg
       $ deadline_arg $ wait_budget_arg $ slo_budget_arg $ session_arg $ mobility_arg
       $ require_complete_arg $ json_out_arg $ flight_out_opt $ metrics_out_arg $ prom_out_opt))

let registry_cmd =
  let backend_arg =
    let doc =
      "Registry backend(s) to exercise: $(b,tree), $(b,naive), $(b,dht), or $(b,all)."
    in
    Arg.(value & opt string "all" & info [ "backend" ] ~doc ~docv:"BACKEND")
  in
  let trace_out_arg =
    let doc =
      "Write structured join/query spans as Chrome trace-event JSONL (one event per line) to \
       $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")
  in
  let metrics_out_arg =
    let doc =
      "Write a JSON metrics snapshot (counters plus mean/CI and p50/p90/p99 per stat stream, \
       including per-backend registry insert/query latency) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")
  in
  let run quick seed routers peers k backend_spec trace_out metrics_out audit_rate slos
      flight_out prom_out =
    match parse_slos slos with
    | Error e -> `Error (false, e)
    | Ok slos -> (
    let seed = Option.value ~default:1 seed in
    let routers = Option.value ~default:(if quick then 600 else 2000) routers in
    let peers = Option.value ~default:(if quick then 150 else 600) peers in
    let k = Option.value ~default:5 k in
    let specs =
      if String.lowercase_ascii (String.trim backend_spec) = "all" then Ok Eval.Backends.all
      else Result.map (fun s -> [ s ]) (Eval.Backends.of_string backend_spec)
    in
    match specs with
    | Error e -> `Error (false, e)
    | Ok specs ->
        let w = Eval.Workload.build ~routers ~landmark_count:4 ~peers ~seed () in
        let n = Array.length w.Eval.Workload.peer_routers in
        (* Registry runs have no simulated clock; the audit timeseries
           ticks on the query index instead, 100 queries per window. *)
        let want_timeseries = audit_rate > 0.0 || slos <> [] in
        (* The same scenario for every backend: join the whole population
           through the server, then ask everyone's k nearest. *)
        let run_backend ?(spans = Simkit.Span.noop) ?metrics spec =
          (* The middleware gets the sink too, so with --trace-out every
             store op is a span inside the join/query that caused it. *)
          let backend =
            Nearby.Instrumented_registry.wrap ?metrics
              ?spans:(if Simkit.Span.enabled spans then Some spans else None)
              (Eval.Backends.backend spec)
          in
          let server =
            Nearby.Server.create ~backend ~spans w.Eval.Workload.ctx.Nearby.Selector.oracle
              ~landmarks:w.Eval.Workload.landmarks
          in
          for peer = 0 to n - 1 do
            ignore
              (Nearby.Server.join server ~peer
                 ~attach_router:w.Eval.Workload.peer_routers.(peer))
          done;
          let ts =
            if want_timeseries then Some (Simkit.Timeseries.create ~window_ms:100.0 ()) else None
          in
          let queries = ref 0 in
          let auditor =
            if audit_rate > 0.0 then
              Some
                (Nearby.Audit.create ~rate:audit_rate ~seed ?timeseries:ts
                   ~clock:(fun () -> float_of_int !queries)
                   server)
            else None
          in
          let answers =
            Array.init n (fun peer ->
                incr queries;
                match auditor with
                | Some a -> Nearby.Audit.neighbors a ~peer ~k
                | None -> Nearby.Server.neighbors server ~peer ~k)
          in
          (server, answers, ts, auditor)
        in
        let _, reference, _, _ = run_backend Eval.Backends.Tree in
        Printf.printf "registry backends on the same scenario (%d routers, %d peers, k=%d)\n"
          routers peers k;
        let runs =
          List.mapi
            (fun idx spec ->
              let spans =
                match trace_out with
                | Some _ -> Simkit.Span.buffer ~pid:(idx + 1) ()
                | None -> Simkit.Span.noop
              in
              let metrics =
                match (metrics_out, prom_out) with
                | None, None -> None
                | _ -> Some (Simkit.Trace.create ())
              in
              let server, answers, ts, auditor = run_backend ~spans ?metrics spec in
              (spec, server, answers, spans, metrics, ts, auditor))
            specs
        in
        let rows =
          List.map
            (fun (_, server, answers, _, _, _, auditor) ->
              let stats =
                Nearby.Server.registry_stats server
                |> List.filter (fun (key, _) -> key <> "members")
                |> List.map (fun (key, v) -> Printf.sprintf "%s=%d" key v)
                |> String.concat " "
              in
              let audit_cell =
                match auditor with
                | None -> "-"
                | Some a -> (
                    let t = Nearby.Audit.trace a in
                    match
                      ( Simkit.Trace.summary t "audit_recall_at_k",
                        Simkit.Trace.summary t "audit_stretch" )
                    with
                    | Some recall, Some stretch when recall.Simkit.Trace.count > 0 ->
                        Printf.sprintf "n=%d recall=%.3f stretch=%.3f"
                          recall.Simkit.Trace.count recall.Simkit.Trace.mean
                          stretch.Simkit.Trace.mean
                    | _ -> Printf.sprintf "n=%d" (Simkit.Trace.counter t "audit_samples"))
              in
              [
                Nearby.Server.backend_name server;
                string_of_bool (answers = reference);
                string_of_int (Simkit.Trace.counter (Nearby.Server.trace server) "registry_insert");
                string_of_int (Simkit.Trace.counter (Nearby.Server.trace server) "registry_query");
                audit_cell;
                stats;
              ])
            runs
        in
        Prelude.Table.print
          ~header:[ "backend"; "answers = tree"; "inserts"; "queries"; "audit"; "stats" ]
          rows;
        (* Structural introspection: how the stored state is actually laid
           out per backend (bucket occupancy, hottest routers, footprint). *)
        List.iter
          (fun (_, server, _, _, _, _, _) ->
            Printf.printf "introspect %s: %s\n" (Nearby.Server.backend_name server)
              (Nearby.Registry_intf.introspection_json (Nearby.Server.introspection server)))
          runs;
        (match trace_out with
        | None -> ()
        | Some file ->
            let sinks = List.map (fun (_, _, _, spans, _, _, _) -> spans) runs in
            Simkit.Span.write_jsonl sinks file;
            Printf.printf "wrote %d span events to %s\n"
              (List.fold_left (fun acc s -> acc + Simkit.Span.event_count s) 0 sinks)
              file);
        let sections =
          List.concat_map
            (fun (spec, server, _, _, metrics, _, auditor) ->
              let name = Eval.Backends.to_string spec in
              (("server:" ^ name, Nearby.Server.trace server)
              :: (match metrics with
                 | Some m -> [ ("registry:" ^ name, m) ]
                 | None -> []))
              @
              match auditor with
              | Some a -> [ ("audit:" ^ name, Nearby.Audit.trace a) ]
              | None -> [])
            runs
        in
        let timeseries =
          List.filter_map
            (fun (spec, _, _, _, _, ts, _) ->
              Option.map (fun t -> (Eval.Backends.to_string spec, t)) ts)
            runs
        in
        (match metrics_out with
        | None -> ()
        | Some file ->
            let meta =
              Simkit.Export.capture_meta ~seed
                ~backends:(List.map Eval.Backends.to_string specs)
                ~extra:
                  [
                    ("routers", string_of_int routers);
                    ("peers", string_of_int peers);
                    ("k", string_of_int k);
                  ]
                ()
            in
            Simkit.Export.write_file file
              (Simkit.Export.metrics_json ~meta ~timeseries sections);
            Printf.printf "wrote metrics snapshot to %s\n" file);
        (match prom_out with
        | None -> ()
        | Some file ->
            Simkit.Export.write_file file (Simkit.Export.prometheus sections);
            Printf.printf "wrote Prometheus exposition to %s\n" file);
        (* SLO breaches here are report-only: the exit code gates answer
           consistency, not performance (that is [bench regress]'s job). *)
        (if slos <> [] || flight_out <> None then begin
           let recorder = Simkit.Flight_recorder.create ~capacity:256 () in
           List.iter
             (fun (name, ts) ->
               List.iter
                 (fun st ->
                   Printf.printf "SLO [%s] %s\n" name (Simkit.Slo.status_line st);
                   if st.Simkit.Slo.breached then
                     Simkit.Flight_recorder.record recorder ~ts:(float_of_int n) ~kind:"slo"
                       ~args:[ ("backend", Simkit.Span.Str name) ]
                       ("breach: " ^ st.Simkit.Slo.spec.Simkit.Slo.name))
                 (Simkit.Slo.check ts slos))
             timeseries;
           match flight_out with
           | Some file ->
               Simkit.Flight_recorder.write recorder file;
               Printf.printf "wrote %d flight-recorder events to %s\n"
                 (Simkit.Flight_recorder.count recorder)
                 file
           | None -> ()
         end);
        let all_identical =
          List.for_all (fun row -> List.nth row 1 = "true") rows
        in
        if all_identical then exit_ok
        else `Error (false, "backends disagree on neighbor sets"))
  in
  Cmd.v
    (Cmd.info "registry"
       ~doc:
         "Run one scenario against the registry backends through the unified interface and \
          compare their answers.")
    Term.(
      ret
        (const run $ quick_flag $ seed_opt $ routers_opt $ peers_opt $ k_opt $ backend_arg
       $ trace_out_arg $ metrics_out_arg $ audit_rate_opt $ slo_opt $ flight_out_opt
       $ prom_out_opt))

let trace_cmd =
  let file_arg =
    let doc =
      "Span JSONL file to analyze (the output of $(b,--trace-out) on the resilience or \
       registry commands)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"FILE")
  in
  let run file =
    match Simkit.Trace_analysis.load file with
    | exception Sys_error e -> `Error (false, e)
    | spans, untraced ->
        if spans = [] && untraced = 0 then
          `Error (false, Printf.sprintf "%s: no span events found" file)
        else begin
          print_string
            (Simkit.Trace_analysis.report_to_string
               (Simkit.Trace_analysis.analyze ~untraced spans));
          exit_ok
        end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Critical-path analysis of a span JSONL file: reconstruct the causal tree of every \
          trace, attribute each trace's duration along its critical path, and report \
          per-span-kind shares overall and in the p99 tail.")
    Term.(ret (const run $ file_arg))

let verify_cmd =
  let run seed_opt =
    let seed = Option.value ~default:1 seed_opt in
    let failures = ref 0 in
    let check name f =
      match f () with
      | () -> Printf.printf "  [ok] %s\n%!" name
      | exception e ->
          incr failures;
          Printf.printf "  [FAIL] %s: %s\n%!" name (Printexc.to_string e)
    in
    Printf.printf "self-check (seed %d)\n%!" seed;
    let rng = Prelude.Prng.create seed in
    check "magoni map connected + heavy-tailed" (fun () ->
        let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 800) ~seed in
        assert (Topology.Graph.is_connected map.graph);
        assert (Topology.Degree.gini map.graph > 0.2));
    check "server survives 500 random operations" (fun () ->
        let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 500) ~seed in
        let oracle = Traceroute.Route_oracle.create map.graph in
        let landmarks = Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:4 ~rng in
        let server = Nearby.Server.create oracle ~landmarks in
        for i = 0 to 499 do
          let peer = Prelude.Prng.int rng 60 in
          (match Prelude.Prng.int rng 4 with
          | 0 ->
              if not (Nearby.Server.mem server peer) then
                ignore
                  (Nearby.Server.join server ~peer
                     ~attach_router:map.leaves.(Prelude.Prng.int rng (Array.length map.leaves)))
          | 1 -> if Nearby.Server.mem server peer then Nearby.Server.leave server ~peer
          | 2 ->
              if Nearby.Server.mem server peer then
                ignore
                  (Nearby.Server.handover server ~peer
                     ~attach_router:map.leaves.(Prelude.Prng.int rng (Array.length map.leaves)))
          | _ ->
              if Nearby.Server.mem server peer then
                ignore (Nearby.Server.neighbors server ~peer ~k:4));
          if i mod 50 = 0 then Nearby.Server.check_invariants server
        done;
        Nearby.Server.check_invariants server);
    check "server snapshot roundtrip" (fun () ->
        let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 400) ~seed in
        let oracle = Traceroute.Route_oracle.create map.graph in
        let landmarks = Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:3 ~rng in
        let server = Nearby.Server.create oracle ~landmarks in
        for peer = 0 to 30 do
          ignore (Nearby.Server.join server ~peer ~attach_router:map.leaves.(peer))
        done;
        match Nearby.Server.restore oracle (Nearby.Server.snapshot server) with
        | Ok restored ->
            Nearby.Server.check_invariants restored;
            assert (Nearby.Server.peer_count restored = Nearby.Server.peer_count server);
            assert (Int64.equal (Nearby.Server.digest restored) (Nearby.Server.digest server));
            for peer = 0 to 30 do
              assert (
                Nearby.Server.neighbors restored ~peer ~k:4
                = Nearby.Server.neighbors server ~peer ~k:4)
            done
        | Error e -> failwith e);
    check "3-replica cluster = plain server" (fun () ->
        (* The same population joins a 3-replica cluster peer by peer and
           a plain server: after a sync round every replica must hold the
           plain server's content and give its answers. *)
        let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 400) ~seed in
        let oracle = Traceroute.Route_oracle.create map.graph in
        let place_rng = Prelude.Prng.create (seed + 1000) in
        let landmarks =
          Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:3 ~rng:place_rng
        in
        let routers =
          Nearby.Landmark.place map.graph Nearby.Landmark.High_degree ~count:3 ~rng:place_rng
        in
        let peers = 120 and k = 4 in
        let attach peer = map.leaves.(peer mod Array.length map.leaves) in
        let reference = Nearby.Server.create oracle ~landmarks in
        for peer = 0 to peers - 1 do
          ignore (Nearby.Server.join reference ~peer ~attach_router:(attach peer))
        done;
        let engine = Simkit.Engine.create () in
        let transport = Simkit.Transport.create engine oracle in
        let cluster =
          Nearby.Cluster.create ~transport ~client_router:map.core.(0)
            ~make_server:(fun () -> Nearby.Server.create oracle ~landmarks)
            ~routers ()
        in
        let protocol =
          Nearby.Protocol.create_resilient ~rpc:(Simkit.Rpc.create transport) cluster
        in
        let failed = ref 0 in
        for peer = 0 to peers - 1 do
          Simkit.Engine.schedule_at engine ~time:(100.0 *. float_of_int peer) (fun () ->
              Nearby.Protocol.join protocol ~peer ~attach_router:(attach peer) ~k
                ~on_failure:(fun () -> incr failed)
                ~on_complete:(fun _ _ -> ()))
        done;
        Simkit.Engine.run engine ~until:(100.0 *. float_of_int peers +. 10_000.0);
        Nearby.Cluster.sync_round cluster;
        assert (!failed = 0);
        assert (Nearby.Server.peer_count reference = peers);
        let replicas =
          List.init (Nearby.Cluster.replica_count cluster) (Nearby.Cluster.server_of cluster)
        in
        List.iter
          (fun s ->
            Nearby.Server.check_invariants s;
            assert (Int64.equal (Nearby.Server.digest s) (Nearby.Server.digest reference)))
          replicas;
        for peer = 0 to peers - 1 do
          let answer = Nearby.Server.neighbors reference ~peer ~k in
          List.iter (fun s -> assert (Nearby.Server.neighbors s ~peer ~k = answer)) replicas
        done);
    check "replica snapshots survive restore byte for byte after a lossy run" (fun () ->
        (* Lossy probes and a lossy network: traces lose hops, joins retry
           and fail over, replicas diverge.  Whatever each replica holds,
           its snapshot restored and snapshotted again is the same bytes
           with the same digest. *)
        let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 400) ~seed in
        let oracle = Traceroute.Route_oracle.create map.graph in
        let place_rng = Prelude.Prng.create (seed + 2000) in
        let landmarks =
          Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:3 ~rng:place_rng
        in
        let routers =
          Nearby.Landmark.place map.graph Nearby.Landmark.High_degree ~count:3 ~rng:place_rng
        in
        let probe_config = { Traceroute.Probe.default_config with drop_prob = 0.2 } in
        let engine = Simkit.Engine.create () in
        let transport =
          Simkit.Transport.create ~rng:(Prelude.Prng.create (seed + 3000)) ~loss_prob:0.2 engine
            oracle
        in
        let cluster =
          Nearby.Cluster.create ~transport ~client_router:map.core.(0)
            ~make_server:(fun () -> Nearby.Server.create ~probe_config oracle ~landmarks)
            ~routers ()
        in
        let protocol = Nearby.Protocol.create_resilient ~rpc:(Simkit.Rpc.create transport) cluster in
        let probe_rng = Prelude.Prng.create (seed + 4000) in
        let peers = 120 in
        for peer = 0 to peers - 1 do
          Simkit.Engine.schedule_at engine ~time:(50.0 *. float_of_int peer) (fun () ->
              Nearby.Protocol.join ~rng:probe_rng protocol ~peer
                ~attach_router:map.leaves.(peer mod Array.length map.leaves)
                ~k:4
                ~on_complete:(fun _ _ -> ()))
        done;
        Simkit.Engine.run engine ~until:(50.0 *. float_of_int peers +. 10_000.0);
        for i = 0 to Nearby.Cluster.replica_count cluster - 1 do
          let server = Nearby.Cluster.server_of cluster i in
          assert (Nearby.Server.peer_count server > 0);
          let data = Nearby.Server.snapshot server in
          match Nearby.Server.restore oracle data with
          | Error e -> failwith e
          | Ok restored ->
              Nearby.Server.check_invariants restored;
              assert (String.equal (Nearby.Server.snapshot restored) data);
              assert (Int64.equal (Nearby.Server.digest restored) (Nearby.Server.digest server))
        done);
    check "chord + kademlia invariants and lookup consistency" (fun () ->
        let members = Array.init 48 (fun i -> 100 + (i * 13)) in
        let chord = Dht.Chord.build ~virtual_nodes:4 members in
        Dht.Chord.check_invariants chord;
        let kad = Dht.Kademlia.build members in
        Dht.Kademlia.check_invariants kad;
        for key = 0 to 100 do
          assert (fst (Dht.Chord.lookup chord ~from:members.(key mod 48) ~key)
                  = Dht.Chord.owner_of chord ~key);
          assert (fst (Dht.Kademlia.lookup kad ~from:members.(key mod 48) ~key)
                  = Dht.Kademlia.owner_of kad ~key)
        done);
    check "wire format roundtrips random replies" (fun () ->
        for _ = 1 to 200 do
          let neighbors =
            List.init (Prelude.Prng.int rng 8) (fun _ ->
                (Prelude.Prng.int rng 5000, Prelude.Prng.int rng 40))
          in
          let m = Nearby.Wire.Neighbor_reply { peer = Prelude.Prng.int rng 5000; neighbors } in
          match Nearby.Wire.decode (Nearby.Wire.encode m) with
          | Ok m' -> assert (Nearby.Wire.equal m m')
          | Error e -> failwith e
        done);
    check "cyclon invariants over 20 rounds" (fun () ->
        let c = Nearby.Cyclon.create Nearby.Cyclon.default_params ~n:50 ~rng in
        for _ = 1 to 20 do
          Nearby.Cyclon.round c;
          Nearby.Cyclon.check_invariants c
        done);
    if !failures = 0 then begin
      Printf.printf "all checks passed\n";
      `Ok ()
    end
    else `Error (false, Printf.sprintf "%d check(s) failed" !failures)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run cross-subsystem structural self-checks on a random workload.")
    Term.(ret (const run $ seed_opt))

let all_cmd =
  let run quick seed =
    let banner title =
      Printf.printf "\n================ %s ================\n%!" title
    in
    banner "fig2";
    let fig2 = if quick then Eval.Fig2.quick_config else Eval.Fig2.default_config in
    let fig2 = match seed with Some s -> { fig2 with seeds = [ s ] } | None -> fig2 in
    Eval.Fig2.print (Eval.Fig2.run fig2);
    banner "complexity";
    Eval.Complexity.print
      (Eval.Complexity.run (if quick then Eval.Complexity.quick_config else Eval.Complexity.default_config));
    banner "E1 landmarks";
    let lm = if quick then Eval.Landmark_sweep.quick_config else Eval.Landmark_sweep.default_config in
    Eval.Landmark_sweep.print (Eval.Landmark_sweep.run lm);
    Eval.Landmark_sweep.print_ablation (Eval.Landmark_sweep.run_round1_ablation lm);
    banner "E2 super-peers";
    Eval.Super_peer_exp.print
      (Eval.Super_peer_exp.run
         (if quick then Eval.Super_peer_exp.quick_config else Eval.Super_peer_exp.default_config));
    banner "E3 churn";
    Eval.Churn_exp.print
      (Eval.Churn_exp.run (if quick then Eval.Churn_exp.quick_config else Eval.Churn_exp.default_config));
    banner "E4 truncate";
    Eval.Truncate_exp.print
      (Eval.Truncate_exp.run
         (if quick then Eval.Truncate_exp.quick_config else Eval.Truncate_exp.default_config));
    banner "E5 setup delay";
    Eval.Setup_delay.print
      (Eval.Setup_delay.run
         (if quick then Eval.Setup_delay.quick_config else Eval.Setup_delay.default_config));
    banner "metric ablation";
    Eval.Metric_ablation.print
      (Eval.Metric_ablation.run
         (if quick then Eval.Metric_ablation.quick_config else Eval.Metric_ablation.default_config));
    banner "streaming";
    Eval.Streaming_exp.print
      (Eval.Streaming_exp.run
         (if quick then Eval.Streaming_exp.quick_config else Eval.Streaming_exp.default_config));
    banner "stretch analysis";
    Eval.Stretch_analysis.print
      (Eval.Stretch_analysis.run
         (if quick then Eval.Stretch_analysis.quick_config else Eval.Stretch_analysis.default_config));
    banner "maintenance";
    Eval.Maintenance_exp.print
      (Eval.Maintenance_exp.run
         (if quick then Eval.Maintenance_exp.quick_config else Eval.Maintenance_exp.default_config));
    banner "topologies";
    Eval.Topology_sensitivity.print
      (Eval.Topology_sensitivity.run
         (if quick then Eval.Topology_sensitivity.quick_config
          else Eval.Topology_sensitivity.default_config));
    banner "dht";
    Eval.Dht_exp.print
      (Eval.Dht_exp.run (if quick then Eval.Dht_exp.quick_config else Eval.Dht_exp.default_config));
    banner "inflation";
    Eval.Inflation_exp.print
      (Eval.Inflation_exp.run
         (if quick then Eval.Inflation_exp.quick_config else Eval.Inflation_exp.default_config));
    banner "bulk";
    Eval.Bulk_exp.print
      (Eval.Bulk_exp.run (if quick then Eval.Bulk_exp.quick_config else Eval.Bulk_exp.default_config));
    banner "joining";
    Eval.Joining_exp.print
      (Eval.Joining_exp.run
         (if quick then Eval.Joining_exp.quick_config else Eval.Joining_exp.default_config));
    exit_ok
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in DESIGN.md's index.")
    Term.(ret (const run $ quick_flag $ seed_opt))

let top_cmd =
  let once_arg =
    let doc =
      "Run the fleet to completion and print one final frame (no escape sequences) — the \
       headless / CI capture mode."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let frames_arg =
    let doc = "Number of refresh frames to render across the run (live mode)." in
    Arg.(value & opt int 12 & info [ "frames" ] ~doc ~docv:"N")
  in
  let refresh_arg =
    let doc = "Wall-clock delay between live frames, milliseconds." in
    Arg.(value & opt float 500.0 & info [ "refresh-ms" ] ~doc ~docv:"MS")
  in
  let replicas_arg =
    let doc = "Number of management-server replicas." in
    Arg.(value & opt int 3 & info [ "replicas" ] ~doc ~docv:"N")
  in
  let metrics_out_arg =
    let doc =
      "Write the final JSON metrics snapshot (merged fleet section, labeled series, runtime \
       profile, windowed timeseries) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")
  in
  let run quick seed routers peers k replicas once frames refresh_ms slos metrics_out
      prom_out =
    match parse_slos slos with
    | Error e -> `Error (false, e)
    | Ok slo_list -> (
        let config =
          if quick then Eval.Fleet_obs.quick_config else Eval.Fleet_obs.default_config
        in
        let config = override seed (fun c v -> { c with Eval.Fleet_obs.seed = v }) config in
        let config = override routers (fun c v -> { c with Eval.Fleet_obs.routers = v }) config in
        let config = override peers (fun c v -> { c with Eval.Fleet_obs.peers = v }) config in
        let config = override k (fun c v -> { c with Eval.Fleet_obs.k = v }) config in
        let config = { config with Eval.Fleet_obs.replicas } in
        let config =
          if slo_list = [] then config else { config with Eval.Fleet_obs.slos = slo_list }
        in
        match Eval.Fleet_obs.start config with
        | exception Invalid_argument msg -> `Error (false, msg)
        | t ->
            let horizon = Eval.Fleet_obs.horizon t in
            if once then begin
              Eval.Fleet_obs.advance t ~until:horizon;
              print_string (Eval.Fleet_obs.render t)
            end
            else begin
              let frames = max 1 frames in
              for i = 1 to frames do
                Eval.Fleet_obs.advance t
                  ~until:(horizon *. float_of_int i /. float_of_int frames);
                (* Clear between frames, never inside one: a killed render
                   still leaves the terminal on a frame boundary. *)
                if i > 1 then print_string "\027[2J\027[H";
                print_string (Eval.Fleet_obs.render t);
                flush stdout;
                if i < frames then Unix.sleepf (Float.max 0.0 refresh_ms /. 1000.0)
              done
            end;
            (match metrics_out with
            | Some file ->
                let meta =
                  Simkit.Export.capture_meta ~seed:config.Eval.Fleet_obs.seed
                    ~extra:[ ("replicas", string_of_int replicas) ]
                    ()
                in
                Simkit.Export.write_file file
                  (Simkit.Export.metrics_json ~meta
                     ~timeseries:[ ("fleet", Eval.Fleet_obs.timeseries t) ]
                     ~labeled:
                       [
                         ("fleet", Eval.Fleet_obs.metrics t);
                         ("replicas", Eval.Fleet_obs.scrape t);
                       ]
                     ~runtime:(Eval.Fleet_obs.runtime t)
                     [ ("fleet", Eval.Fleet_obs.fleet_trace t) ]);
                Printf.printf "wrote metrics snapshot to %s\n%!" file
            | None -> ());
            (match prom_out with
            | Some file ->
                Simkit.Export.write_file file
                  (Simkit.Export.prometheus_labeled
                     [
                       ("fleet", Eval.Fleet_obs.metrics t);
                       ("replicas", Eval.Fleet_obs.scrape t);
                     ]);
                Printf.printf "wrote Prometheus exposition to %s\n%!" file
            | None -> ());
            exit_ok)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live fleet dashboard: a replicated cluster fills with joins while refreshing panels \
          show ops/s, join p50/p99, SLO burn status and GC per phase.  $(b,--once) renders a \
          single final frame for CI.")
    Term.(
      ret
        (const run $ quick_flag $ seed_opt $ routers_opt $ peers_opt $ k_opt $ replicas_arg
       $ once_arg $ frames_arg $ refresh_arg $ slo_opt $ metrics_out_arg
       $ prom_out_opt))

let () =
  let info =
    Cmd.info "nearby_sim" ~version:"1.0.0"
      ~doc:"Experiments for the landmark/traceroute nearby-peer discovery system."
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            fig2_cmd;
            landmarks_cmd;
            superpeers_cmd;
            churn_cmd;
            truncate_cmd;
            setup_delay_cmd;
            complexity_cmd;
            metric_cmd;
            streaming_cmd;
            stretch_cmd;
            maintenance_cmd;
            topologies_cmd;
            dht_cmd;
            registry_cmd;
            inflation_cmd;
            bulk_cmd;
            joining_cmd;
            resilience_cmd;
            load_cmd;
            top_cmd;
            trace_cmd;
            verify_cmd;
            all_cmd;
          ]))
