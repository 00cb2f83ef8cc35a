(* The fleet observability workload behind `nearby_sim top`, `bench obs`'s
   fleet section and the dimensional-metrics acceptance tests: a healthy
   N-replica cluster (no fault script) whose replicas each run the path
   tree, every layer wired into one labeled metrics registry.

   One run produces every view:

   - per-backend series from {!Nearby.Instrumented_registry}
     ([registry_*_ns{backend="tree"}]);
   - per-outcome RPC series ([rpc_outcomes{outcome="ok"}], ...);
   - per-replica series from {!Nearby.Cluster.scrape}
     ([join_ms{replica="2"}], ...) plus the merged fleet trace from
     {!Nearby.Cluster.fleet_trace};
   - a {!Simkit.Runtime_profile} of the run itself (GC deltas per phase,
     observe-path overhead).

   The engine can be advanced in slices ({!advance}), so the live
   dashboard renders a frame between slices and watches the fleet fill
   up in simulated time; {!run} drives straight to the horizon for
   benches and tests. *)

type config = {
  routers : int;
  peers : int;
  k : int;
  replicas : int;
  arrival_window_ms : float;
  sync_period_ms : float;
  window_ms : float;  (** Timeseries / SLO window width. *)
  admission_rate_per_s : float;
      (** Drain rate of the admission queue in front of the cluster —
          generous by default, so a healthy fleet never sheds and the
          dashboard's queue-depth panel hovers near zero. *)
  bandwidth_budget_bytes_per_s : float;
      (** Wire-bandwidth SLO: a completed window moving more than this
          many delivered bytes per second raises a ["wire"]-kind
          flight-recorder breach event (edge-triggered, cleared when the
          rate falls back under budget). *)
  slos : Simkit.Slo.spec list;
  seed : int;
}

let default_slos =
  [
    Simkit.Slo.of_string_exn "join_p99_ms=2000";
    Simkit.Slo.of_string_exn "join_completed/join_started>=0.99";
  ]

let default_config =
  {
    routers = 2000;
    peers = 300;
    k = 5;
    replicas = 3;
    arrival_window_ms = 8_000.0;
    sync_period_ms = 2_000.0;
    window_ms = 500.0;
    admission_rate_per_s = 200.0;
    bandwidth_budget_bytes_per_s = 1_048_576.0;
    slos = default_slos;
    seed = 1;
  }

let quick_config = { default_config with routers = 800; peers = 120 }

type t = {
  config : config;
  run : Cluster_run.t;
  metrics : Simkit.Metrics.t;
  timeseries : Simkit.Timeseries.t;
  admission : Nearby.Admission.t;
  runtime : Simkit.Runtime_profile.t;
  recorder : Simkit.Flight_recorder.t;
  wire_breaches : int ref;
}

let start (config : config) =
  if config.window_ms <= 0.0 then invalid_arg "Fleet_obs: window_ms must be positive";
  let metrics = Simkit.Metrics.create () in
  let runtime = Simkit.Runtime_profile.create () in
  Simkit.Runtime_profile.phase runtime "build" (fun () ->
      let run_config =
        {
          Cluster_run.routers = config.routers;
          peers = config.peers;
          k = config.k;
          replicas = config.replicas;
          arrival_window_ms = config.arrival_window_ms;
          sync_period_ms = config.sync_period_ms;
          (* The admission queue drains every peer at its service rate. *)
          drain_ms = 1_000.0 *. float_of_int config.peers /. config.admission_rate_per_s;
          seed = config.seed;
        }
      in
      (* The horizon is known before the run is built, so the windowed
         timeseries can be sized up front and handed to the transport —
         every delivered byte lands in the [wire_bytes] series from the
         first send on. *)
      let timeseries = Cluster_run.timeseries run_config ~window_ms:config.window_ms in
      (* Every replica's backend writes its {backend="tree"} series into
         the shared registry. *)
      let backend =
        Nearby.Instrumented_registry.wrap
          ~sink:(fun name -> Simkit.Metrics.stream_ref metrics name ~labels:[ ("backend", "tree") ])
          (module Nearby.Path_tree)
      in
      let recorder = Simkit.Flight_recorder.create () in
      let run = Cluster_run.create ~metrics ~recorder ~timeseries ~backend run_config in
      let engine = run.engine in
      (* Bandwidth SLO watch: once per window, read the just-completed
         [wire_bytes] window and compare its delivered-bytes-per-second
         against the budget.  Breach and clear are edge events on the
         flight recorder, so a dump shows when the fleet got loud, not a
         breach line per loud window. *)
      let wire_breaches = ref 0 in
      let breached = ref false in
      Cluster_run.every run ~period_ms:config.window_ms (fun () ->
          let current = int_of_float (Simkit.Engine.now engine /. config.window_ms) in
          let completed_bps =
            Simkit.Timeseries.windows timeseries "wire_bytes"
            |> List.fold_left
                 (fun acc w ->
                   match w with
                   | Some (s : Simkit.Timeseries.summary) when s.index < current ->
                       Some (s.rate_per_s *. s.mean)
                   | _ -> acc)
                 None
          in
          match completed_bps with
          | Some bps when bps > config.bandwidth_budget_bytes_per_s && not !breached ->
              breached := true;
              incr wire_breaches;
              Simkit.Flight_recorder.record recorder ~ts:(Simkit.Engine.now engine) ~kind:"wire"
                ~args:
                  [
                    ("bytes_per_s", Simkit.Span.Float bps);
                    ("budget", Simkit.Span.Float config.bandwidth_budget_bytes_per_s);
                  ]
                "bandwidth_breach"
          | Some bps when bps <= config.bandwidth_budget_bytes_per_s && !breached ->
              breached := false;
              Simkit.Flight_recorder.record recorder ~ts:(Simkit.Engine.now engine) ~kind:"wire"
                ~args:[ ("bytes_per_s", Simkit.Span.Float bps) ]
                "bandwidth_clear"
          | _ -> ());
      (* Health poll: one digest check per window, so the divergence gauge,
         the episode edges on the flight recorder and the dashboard's
         divergent-replicas sparkline all track the fleet at SLO-window
         resolution. *)
      if config.replicas > 1 then
        Cluster_run.every run ~period_ms:config.window_ms (fun () ->
            let divergent = Nearby.Cluster.digest_check run.cluster in
            Simkit.Timeseries.observe timeseries "divergent_replicas"
              ~now:(Simkit.Engine.now engine)
              (float_of_int (List.length divergent)));
      (* Joins pass through a bounded admission queue before reaching the
         protocol layer: the same front door the overload experiments
         stress, here provisioned generously (capacity for every peer, a
         drain rate well above the arrival rate) so nothing sheds and the
         queueing term stays a few ticks wide. *)
      let admission =
        Nearby.Admission.create ~engine ~metrics ~timeseries
          {
            Nearby.Admission.capacity = max config.peers 64;
            service_rate_per_s = config.admission_rate_per_s;
            batch = 4;
            policy = Nearby.Admission.Drop_tail;
          }
      in
      Cluster_run.arrivals run ~timeseries ~admit:(fun ~serve ~shed ->
          Nearby.Admission.submit admission
            ~serve:(fun ~queued_ms:_ -> serve ())
            ~shed:(fun ~reason:_ -> shed ()));
      { config; run; metrics; timeseries; admission; runtime; recorder; wire_breaches })

let horizon t = t.run.horizon
let now t = Simkit.Engine.now t.run.engine
let finished t = now t >= horizon t
let metrics t = t.metrics
let timeseries t = t.timeseries
let runtime t = t.runtime
let cluster t = t.run.cluster
let transport t = t.run.transport
let admission t = t.admission
let recorder t = t.recorder
let fleet_trace t = Nearby.Cluster.fleet_trace t.run.cluster

let advance t ~until =
  Simkit.Runtime_profile.phase t.runtime "run" (fun () ->
      Simkit.Engine.run t.run.engine ~until:(Float.min until (horizon t)))

(* A fresh per-replica scrape: replica-labeled series double-count if the
   same registry is scraped twice, so every caller that wants the
   {replica="i"} view asks for a new one. *)
let scrape t =
  let m = Simkit.Metrics.create () in
  Nearby.Cluster.scrape t.run.cluster ~into:m;
  m

(* What a join costs the client, read off the merged server counters:
   probe packets per registered join, and first rounds answered
   [Continue] per registered join.  Gauges of the fleet registry, set
   whenever it is exported. *)
let set_join_gauges t =
  let count = Simkit.Trace.counter (fleet_trace t) in
  let joins = count "join" in
  let per name = if joins = 0 then Float.nan else float_of_int (count name) /. float_of_int joins in
  let set name v = (Simkit.Metrics.gauge_ref t.metrics name ~labels:[]).value <- v in
  set "join_probes_per_join" (per "probe_packets");
  set "join_continue_per_join" (per "join_continue")

(* The artifacts `nearby_sim top` writes: one JSON snapshot and one
   exposition, each holding the fleet registry next to a fresh per-replica
   scrape. *)
let metrics_json t =
  set_join_gauges t;
  let meta =
    Simkit.Export.capture_meta ~seed:t.config.seed
      ~extra:[ ("replicas", string_of_int t.config.replicas) ]
      ()
  in
  Simkit.Export.metrics_json ~meta
    ~timeseries:[ ("fleet", t.timeseries) ]
    ~labeled:[ ("fleet", t.metrics); ("replicas", scrape t) ]
    ~runtime:t.runtime
    [ ("fleet", fleet_trace t) ]

let prometheus t =
  set_join_gauges t;
  Simkit.Export.prometheus_labeled [ ("fleet", t.metrics); ("replicas", scrape t) ]

type result = {
  joins : int;
  completed : int;
  failed : int;
  fleet_join_p50_ms : float;
  fleet_join_p99_ms : float;
  replica_join_p99_ms : float array;
  rpc_ok : int;
  rpc_timeouts : int;
  overhead_ns : float;  (** Observe-path self-overhead of the profiler. *)
  wire_bytes : int;  (** Delivered bytes, all kinds. *)
  wire_dropped_bytes : int;
  replication_amplification : float;  (** See {!Nearby.Cluster.replication_amplification}. *)
  digest_checks : int;  (** Divergence comparisons run (polls + sync ends). *)
  divergent_replicas : int;  (** Replicas diverging at the horizon. *)
  report_age_p50_ms : float;  (** Fleet report-age median at the horizon. *)
  report_age_oldest_ms : float;  (** Stalest report still served. *)
}

let result t =
  if not (finished t) then advance t ~until:t.run.horizon;
  let fleet = fleet_trace t in
  let scraped = scrape t in
  let q quant =
    match Simkit.Trace.quantile fleet "join_ms" quant with Some v -> v | None -> nan
  in
  let replica_join_p99_ms =
    Array.init (Nearby.Cluster.replica_count t.run.cluster) (fun i ->
        match
          Simkit.Metrics.quantile scraped "join_ms"
            ~labels:[ ("replica", string_of_int i) ]
            0.99
        with
        | Some v -> v
        | None -> nan)
  in
  let rpc_trace = Simkit.Rpc.trace t.run.rpc in
  let ages, oldest_age = Cluster_run.staleness t.run in
  {
    joins = t.config.peers;
    completed = t.run.completed;
    failed = t.run.failed;
    fleet_join_p50_ms = q 0.5;
    fleet_join_p99_ms = q 0.99;
    replica_join_p99_ms;
    rpc_ok = Simkit.Trace.counter rpc_trace "rpc_ok";
    rpc_timeouts = Simkit.Trace.counter rpc_trace "rpc_timeouts";
    overhead_ns = Simkit.Runtime_profile.overhead_ns t.runtime;
    wire_bytes = Simkit.Transport.bytes_sent t.run.transport;
    wire_dropped_bytes = Simkit.Transport.bytes_dropped t.run.transport;
    replication_amplification = Nearby.Cluster.replication_amplification t.run.cluster;
    digest_checks = Simkit.Trace.counter (Nearby.Cluster.trace t.run.cluster) "cluster_digest_checks";
    divergent_replicas = List.length (Nearby.Cluster.digest_check t.run.cluster);
    report_age_p50_ms =
      (if Prelude.Sketch.is_empty ages then nan else Prelude.Sketch.quantile ages 0.5);
    report_age_oldest_ms = oldest_age;
  }

let run config =
  let t = start config in
  advance t ~until:(horizon t);
  (result t, t)

(* ---------- Dashboard rendering ---------- *)

let spark_width = 56
let spark_height = 6

(* Windowed series -> plot points; absent windows are skipped rather than
   drawn as zero, matching the timeseries' own None semantics. *)
let points_of t name ~value =
  Simkit.Timeseries.windows t.timeseries name
  |> List.filter_map (fun w ->
         match w with
         | Some (s : Simkit.Timeseries.summary) ->
             let y = value s in
             if Float.is_nan y then None else Some (s.from_ms /. 1000.0, y)
         | None -> None)

let plot_panel title series =
  let series = List.filter (fun (s : Prelude.Ascii_plot.series) -> s.points <> []) series in
  match Prelude.Ascii_plot.render ~width:spark_width ~height:spark_height series with
  | "" -> Printf.sprintf "%s\n  (no samples yet)\n" title
  | plot -> Printf.sprintf "%s\n%s" title plot

let bar width v vmax =
  let n =
    if vmax <= 0.0 then 0
    else int_of_float (Float.round (float_of_int width *. v /. vmax))
  in
  String.concat "" (List.init (max 0 (min width n)) (fun _ -> "#"))

let render t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let fleet = fleet_trace t in
  let registrations = Simkit.Trace.counter fleet "cluster_register" in
  add "nearby fleet top — t=%.1fs / %.1fs  replicas=%d  live=%d/%d\n"
    (now t /. 1000.0) (t.run.horizon /. 1000.0) t.config.replicas
    (Nearby.Cluster.live_count t.run.cluster)
    (Nearby.Cluster.replica_count t.run.cluster);
  add "joins: %d started, %d completed, %d failed (%d cluster registrations)\n\n"
    (t.run.completed + t.run.failed)
    t.run.completed t.run.failed registrations;
  (* Throughput and latency, per SLO window. *)
  add "%s\n"
    (plot_panel "[ops/s — joins completed per window]"
       [ { Prelude.Ascii_plot.label = "join/s"; points = points_of t "join_completed" ~value:(fun s -> s.rate_per_s) } ]);
  add "%s\n"
    (plot_panel "[join latency — windowed quantiles, ms]"
       [
         { Prelude.Ascii_plot.label = "p50"; points = points_of t "join_ms" ~value:(fun s -> s.p50) };
         { Prelude.Ascii_plot.label = "p99"; points = points_of t "join_ms" ~value:(fun s -> s.p99) };
       ]);
  (* SLO burn status. *)
  add "[slo]\n";
  (match Simkit.Slo.check t.timeseries t.config.slos with
  | [] -> add "  (no objectives declared)\n"
  | statuses ->
      List.iter (fun st -> add "  %s\n" (Simkit.Slo.status_line st)) statuses);
  (* RPC outcome mix, from the labeled registry. *)
  let outcome o =
    Simkit.Metrics.counter t.metrics "rpc_outcomes" ~labels:[ ("outcome", o) ]
  in
  add "[rpc] ok=%d timeout=%d no_target=%d unserved=%d gave_up=%d\n"
    (outcome "ok") (outcome "timeout") (outcome "no_target") (outcome "unserved")
    (outcome "gave_up");
  (* Wire view: where the bytes go — totals, the per-kind mix, replication
     amplification, the heaviest endpoints and a bandwidth sparkline. *)
  let fmt_bytes b =
    if b >= 1_048_576 then Printf.sprintf "%.1fMB" (float_of_int b /. 1_048_576.0)
    else if b >= 1024 then Printf.sprintf "%.1fKB" (float_of_int b /. 1024.0)
    else Printf.sprintf "%dB" b
  in
  let amp = Nearby.Cluster.replication_amplification t.run.cluster in
  add "[wire] total=%s dropped=%s amplification=%s slo_breaches=%d\n"
    (fmt_bytes (Simkit.Transport.bytes_sent t.run.transport))
    (fmt_bytes (Simkit.Transport.bytes_dropped t.run.transport))
    (if Float.is_nan amp then "-" else Printf.sprintf "%.2fx" amp)
    !(t.wire_breaches);
  let mix = Cluster_run.wire_kinds t.metrics in
  let kmax = List.fold_left (fun acc (r : Cluster_run.kind_row) -> max acc r.bytes) 0 mix in
  List.iter
    (fun (r : Cluster_run.kind_row) ->
      add "  %-18s %10s %s\n" r.kind (fmt_bytes r.bytes)
        (bar 28 (float_of_int r.bytes) (float_of_int kmax)))
    mix;
  (match Simkit.Transport.top_talkers t.run.transport ~k:3 with
  | [] -> ()
  | talkers ->
      add "  top talkers:\n";
      List.iter
        (fun (tk : Simkit.Transport.talker) ->
          add "    router %-6d %10s out (%d msgs) / %10s in (%d msgs)\n" tk.node
            (fmt_bytes tk.sent_bytes) tk.sent_msgs (fmt_bytes tk.recv_bytes) tk.recv_msgs)
        talkers);
  add "%s\n"
    (plot_panel "  bandwidth (KB/s per window)"
       [
         {
           Prelude.Ascii_plot.label = "KB/s";
           points = points_of t "wire_bytes" ~value:(fun s -> s.rate_per_s *. s.mean /. 1024.0);
         };
       ]);
  (* State health: digest agreement across the replicas, divergence
     episodes and anti-entropy lag, and how stale the served reports
     are. *)
  let ctrace = Nearby.Cluster.trace t.run.cluster in
  let check_mix r =
    Simkit.Metrics.counter t.metrics "cluster_digest_checks_total" ~labels:[ ("result", r) ]
  in
  let divergent_now =
    match Simkit.Metrics.gauge t.metrics "cluster_divergent_replicas" ~labels:[] with
    | Some v -> int_of_float v
    | None -> 0
  in
  add "[health] digest checks=%d (consistent=%d divergent=%d) divergent_now=%d%s\n"
    (Simkit.Trace.counter ctrace "cluster_digest_checks")
    (check_mix "consistent") (check_mix "divergent") divergent_now
    (if divergent_now > 0 then "  [DIVERGED]" else "");
  add "  sync: rounds=%d restores=%d skipped=%d (digest gate)  anti-entropy lag: %s\n"
    (Simkit.Trace.counter ctrace "cluster_sync_rounds")
    (Simkit.Trace.counter ctrace "cluster_sync_restores")
    (Simkit.Trace.counter ctrace "cluster_sync_skipped")
    (match Simkit.Trace.summary ctrace "cluster_antientropy_lag_ms" with
    | Some s when s.count > 0 ->
        Printf.sprintf "p50=%.0fms max=%.0fms (%d episodes)" s.p50
          (Option.value s.max ~default:nan)
          s.count
    | _ -> "(no closed episodes)");
  (let ages, oldest_age = Cluster_run.staleness t.run in
   if Prelude.Sketch.is_empty ages then add "  staleness: (no reports yet)\n"
   else
     add "  staleness: report age p50=%.0fms p90=%.0fms p99=%.0fms oldest=%.0fms refreshes=%d\n"
       (Prelude.Sketch.quantile ages 0.5)
       (Prelude.Sketch.quantile ages 0.9)
       (Prelude.Sketch.quantile ages 0.99)
       oldest_age
       (Simkit.Trace.counter fleet "report_refresh"));
  add "%s\n"
    (plot_panel "  divergent replicas (per window)"
       [
         {
           Prelude.Ascii_plot.label = "divergent";
           points = points_of t "divergent_replicas" ~value:(fun s -> s.p99);
         };
       ]);
  (* Admission front door: windowed queue depth plus the shed mix. *)
  add "%s"
    (plot_panel "[admission — queue depth per window]"
       [
         {
           Prelude.Ascii_plot.label = "depth";
           points = points_of t Nearby.Admission.depth_series_name ~value:(fun s -> s.mean);
         };
       ]);
  let totals = Nearby.Admission.totals t.admission in
  add
    "  submitted=%d admitted=%d in_queue=%d max_depth=%d shed: %s%s\n\n"
    totals.Nearby.Admission.submitted totals.Nearby.Admission.admitted
    (Nearby.Admission.depth t.admission)
    totals.Nearby.Admission.max_depth
    (match totals.Nearby.Admission.shed with
    | [] -> "none"
    | mix ->
        String.concat " " (List.map (fun (reason, n) -> Printf.sprintf "%s=%d" reason n) mix))
    (if Nearby.Admission.shedding t.admission then "  [SHEDDING]" else "");
  (* Runtime: GC deltas per phase. *)
  add "[runtime]\n";
  List.iter
    (fun (p : Simkit.Runtime_profile.phase) ->
      add "  %-6s runs=%d wall=%.1fms minor=%.2fMw major=%.2fMw gc=%d/%d\n" p.name p.runs
        (p.wall_ns /. 1e6)
        (p.gc.minor_words /. 1e6)
        (p.gc.major_words /. 1e6)
        p.gc.minor_collections p.gc.major_collections)
    (Simkit.Runtime_profile.phases t.runtime);
  add "  observe-path overhead: %.2fms\n"
    (Simkit.Runtime_profile.overhead_ns t.runtime /. 1e6);
  Buffer.contents buf
