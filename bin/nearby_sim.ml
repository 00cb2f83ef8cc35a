(* Command-line driver for the runs that are more than a table: the
   registry cross-check, fault injection, open-loop load, the live fleet
   dashboard, trace analysis and the self-checks.  The experiment tables
   of DESIGN.md's index are regenerated by bench/main.exe. *)

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
    let doc = "Flash-crowd spike onset, seconds into the run (flash only; default 2)." in
    Arg.(value & opt (some float) None & info [ "spike-at" ] ~doc ~docv:"S")
  in
  let spike_len_arg =
    let doc = "Flash-crowd spike length, seconds (flash only; default 4)." in
    Arg.(value & opt (some float) None & info [ "spike-len" ] ~doc ~docv:"S")
  in
  let amplitude_arg =
    let doc = "Diurnal modulation amplitude in [0, 1] (diurnal only; default 0.5)." in
    Arg.(value & opt (some float) None & info [ "amplitude" ] ~doc ~docv:"A")
  in
  let period_arg =
    let doc = "Diurnal period, seconds (diurnal only; default 60)." in
    Arg.(value & opt (some float) None & info [ "period" ] ~doc ~docv:"S")
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
    let arrival_process =
      Eval.Load_exp.arrival ?rate_per_s:rate ?spike_per_s:spike_rate ?spike_at_s:spike_at
        ?spike_len_s:spike_len ?amplitude ?period_s:period
        ~service_rate_per_s:config.Eval.Load_exp.service_rate_per_s arrival
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
    let q = Eval.Registry_run.quick_config in
    let seed = Option.value ~default:q.seed seed in
    let routers = Option.value ~default:(if quick then q.routers else 2000) routers in
    let peers = Option.value ~default:(if quick then q.peers else 600) peers in
    let k = Option.value ~default:q.k k in
    let specs =
      if String.lowercase_ascii (String.trim backend_spec) = "all" then Ok Eval.Backends.all
      else Result.map (fun s -> [ s ]) (Eval.Backends.of_string backend_spec)
    in
    match specs with
    | Error e -> `Error (false, e)
    | Ok specs ->
        let result =
          Eval.Registry_run.run
            {
              routers;
              peers;
              k;
              seed;
              audit_rate;
              timeseries = slos <> [];
              traced = trace_out <> None;
              metered = metrics_out <> None || prom_out <> None;
            }
            specs
        in
        let runs = result.runs in
        let n = Array.length result.reference in
        Printf.printf "registry backends on the same scenario (%d routers, %d peers, k=%d)\n"
          routers peers k;
        let rows =
          List.map
            (fun (r : Eval.Registry_run.run) ->
              let server = r.server in
              let stats =
                Nearby.Server.registry_stats server
                |> List.filter (fun (key, _) -> key <> "members")
                |> List.map (fun (key, v) -> Printf.sprintf "%s=%d" key v)
                |> String.concat " "
              in
              let audit_cell =
                match r.auditor with
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
                string_of_bool (r.answers = result.reference);
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
          (fun (r : Eval.Registry_run.run) ->
            Printf.printf "introspect %s: %s\n" (Nearby.Server.backend_name r.server)
              (Nearby.Registry_intf.introspection_json (Nearby.Server.introspection r.server)))
          runs;
        (match trace_out with
        | None -> ()
        | Some file ->
            Simkit.Export.write_file file (Eval.Registry_run.trace_jsonl result);
            Printf.printf "wrote %d span events to %s\n"
              (List.fold_left
                 (fun acc (r : Eval.Registry_run.run) -> acc + Simkit.Span.event_count r.spans)
                 0 runs)
              file);
        (match metrics_out with
        | None -> ()
        | Some file ->
            Simkit.Export.write_file file (Eval.Registry_run.metrics_json result);
            Printf.printf "wrote metrics snapshot to %s\n" file);
        (match prom_out with
        | None -> ()
        | Some file ->
            Simkit.Export.write_file file (Eval.Registry_run.prometheus result);
            Printf.printf "wrote Prometheus exposition to %s\n" file);
        let timeseries =
          List.filter_map
            (fun (r : Eval.Registry_run.run) ->
              Option.map (fun t -> (Eval.Backends.to_string r.spec, t)) r.timeseries)
            runs
        in
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
        let client = Nearby.Client.create oracle ~landmarks in
        for i = 0 to 499 do
          let peer = Prelude.Prng.int rng 60 in
          (match Prelude.Prng.int rng 4 with
          | 0 ->
              if not (Nearby.Server.mem server peer) then
                ignore
                  (Nearby.Server.join server ~client ~peer
                     ~attach_router:map.leaves.(Prelude.Prng.int rng (Array.length map.leaves)))
          | 1 -> if Nearby.Server.mem server peer then Nearby.Server.leave server ~peer
          | 2 ->
              if Nearby.Server.mem server peer then
                ignore
                  (Nearby.Server.handover server ~client ~peer
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
        let client = Nearby.Client.create oracle ~landmarks in
        for peer = 0 to 30 do
          ignore (Nearby.Server.join server ~client ~peer ~attach_router:map.leaves.(peer))
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
        let client = Nearby.Client.create oracle ~landmarks in
        for peer = 0 to peers - 1 do
          ignore (Nearby.Server.join reference ~client ~peer ~attach_router:(attach peer))
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
            ~make_server:(fun () -> Nearby.Server.create oracle ~landmarks)
            ~routers ()
        in
        let protocol =
          Nearby.Protocol.create_resilient
            ~client:(Nearby.Client.create ~probe_config oracle ~landmarks)
            ~rpc:(Simkit.Rpc.create transport) cluster
        in
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
    if !failures = 0 then begin
      Printf.printf "all checks passed\n";
      `Ok ()
    end
    else `Error (false, Printf.sprintf "%d check(s) failed" !failures)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run cross-subsystem structural self-checks on a random workload.")
    Term.(ret (const run $ seed_opt))

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
                Simkit.Export.write_file file (Eval.Fleet_obs.metrics_json t);
                Printf.printf "wrote metrics snapshot to %s\n%!" file
            | None -> ());
            (match prom_out with
            | Some file ->
                Simkit.Export.write_file file (Eval.Fleet_obs.prometheus t);
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
      ~doc:
        "Fault, load and observability runs for the landmark/traceroute nearby-peer \
         discovery system (experiment tables: bench/main.exe)."
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ registry_cmd; resilience_cmd; load_cmd; top_cmd; trace_cmd; verify_cmd ]))
