type config = {
  routers : int;
  peers : int;
  k : int;
  replicas : int;
  loss : float;
  scenario : string;
  arrival_window_ms : float;
  sync_period_ms : float;
  slos : Simkit.Slo.spec list;
  slo_window_ms : float;
  audit_rate : float;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 300;
    k = 5;
    replicas = 3;
    loss = 0.0;
    scenario = "crash-primary";
    arrival_window_ms = 8_000.0;
    sync_period_ms = 2_000.0;
    slos = [];
    slo_window_ms = 500.0;
    audit_rate = 0.0;
    seed = 1;
  }

let quick_config = { default_config with routers = 800; peers = 120 }

let scenario_names = [ "none"; "crash-primary"; "loss-burst"; "partition" ]

type result = {
  scenario : string;
  replicas : int;
  loss : float;
  joins : int;
  completed : int;
  failed : int;
  completion_rate : float;
  join_p50_ms : float;
  join_p99_ms : float;
  rpc_attempts : int;
  rpc_retries : int;
  rpc_timeouts : int;
  rpc_gave_up : int;
  suspicions : int;
  sync_rounds : int;
  recovery_ms : float option;
  consistent : bool;
  live_peer_counts : int list;
  dropped_loss : int;
  dropped_unreachable : int;
  dropped_partition : int;
  slo_breaches : string list;
}

(* Everything worth keeping after a run besides the headline numbers: the
   live traces, the windowed timeseries the SLOs were judged on, the
   flight recorder, and the final SLO verdicts.  The CLI uses these for
   --metrics-out / --prom-out / --flight-out; tests poke at them
   directly. *)
type artifacts = {
  exp_trace : Simkit.Trace.t;
  rpc_trace : Simkit.Trace.t;
  cluster_trace : Simkit.Trace.t;
  transport_counters : (string * int) list;
  audit_trace : Simkit.Trace.t option;
  timeseries : Simkit.Timeseries.t;
  recorder : Simkit.Flight_recorder.t;
  slo_statuses : Simkit.Slo.status list;
}

(* Partition scenario target: the primary replica's router and its direct
   graph neighbors — a one-hop subtree cut off from the rest of the map. *)
let partition_ball graph ~center =
  center :: Array.to_list (Topology.Graph.neighbors graph center)

let scenario_of config (run : Cluster_run.t) : Simkit.Fault.t =
  let w = config.arrival_window_ms in
  let from_ms, until_ms = Cluster_run.fault_window run.config in
  match config.scenario with
  | "none" -> Simkit.Fault.none
  | "crash-primary" ->
      (* Recover off the sync grid: a recovery landing on a tick is repaired
         in the same instant and would read as a 0 ms recovery. *)
      Simkit.Fault.crash_primary ~crash_at:(0.25 *. w) ~recover_at:(0.7 *. w) ()
  | "loss-burst" -> Simkit.Fault.loss_burst ~base:config.loss ~from_ms ~until_ms ~loss:0.3 ()
  | "partition" ->
      Simkit.Fault.partition_window ~from_ms ~until_ms
        ~nodes:
          (partition_ball (Workload.graph run.workload) ~center:run.replica_routers.(0))
        ()
  | other ->
      invalid_arg
        (Printf.sprintf "Resilience_exp: unknown scenario %S (expected %s)" other
           (String.concat " | " scenario_names))

let run_instrumented ?spans (config : config) =
  if config.loss < 0.0 || config.loss >= 1.0 then
    invalid_arg "Resilience_exp: loss outside [0, 1)";
  if config.slo_window_ms <= 0.0 then invalid_arg "Resilience_exp: slo_window_ms must be positive";
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
  let recorder = Simkit.Flight_recorder.create ~capacity:1024 () in
  (* One shared span sink and flight recorder for cluster, RPC layer and
     servers: a single span-id space, so cross-component parent links
     resolve inside one file, and one dump with the faults in it. *)
  let run =
    Cluster_run.create ?spans ~recorder ~rpc_recorder:recorder ~base_loss:config.loss
      ~fault:(scenario_of config) run_config
  in
  let engine = run.engine in
  let exp_trace = Simkit.Trace.create () in
  (* The windowed view the SLOs are judged on. *)
  let timeseries = Cluster_run.timeseries run_config ~window_ms:config.slo_window_ms in
  let auditor =
    if config.audit_rate > 0.0 then
      Some
        (Nearby.Audit.create ~rate:config.audit_rate ~seed:config.seed ~timeseries
           ~clock:(fun () -> Simkit.Engine.now engine)
           (Nearby.Cluster.measurement_server run.cluster))
    else None
  in
  let monitor = Simkit.Slo.monitor config.slos in
  let breached_ever = ref [] in
  (* Poll the SLOs once per window; the monitor fires only on transition
     edges, each of which lands in the flight recorder. *)
  if config.slos <> [] then begin
    let on_breach (st : Simkit.Slo.status) =
      if not (List.mem st.spec.name !breached_ever) then
        breached_ever := st.spec.name :: !breached_ever;
      (* Cross-link the breach to a concrete offender: the trace id behind
         the worst join-latency bucket seen so far, when joins are being
         traced.  Jumping from the breach event to the span tree is exactly
         the debugging move the exemplars exist for. *)
      let exemplar_args =
        match Simkit.Trace.top_exemplar exp_trace "join_ms" with
        | Some (e : Simkit.Trace.exemplar) ->
            [ ("exemplar_trace_id", Simkit.Span.Int e.trace_id) ]
        | None -> []
      in
      Simkit.Flight_recorder.record recorder ~ts:(Simkit.Engine.now engine) ~kind:"slo"
        ~args:
          ([
             ("burn_rate", Simkit.Span.Float st.burn_rate);
             ("worst", Simkit.Span.Float st.worst);
           ]
          @ exemplar_args)
        ("breach: " ^ st.spec.name)
    in
    let on_clear (st : Simkit.Slo.status) =
      Simkit.Flight_recorder.record recorder ~ts:(Simkit.Engine.now engine) ~kind:"slo"
        ~args:[ ("burn_rate", Simkit.Span.Float st.burn_rate) ]
        ("clear: " ^ st.spec.name)
    in
    Cluster_run.every run ~period_ms:config.slo_window_ms (fun () ->
        ignore (Simkit.Slo.poll ~on_breach ~on_clear monitor timeseries))
  end;
  Cluster_run.arrivals run ~timeseries
    ~on_complete:(fun ~peer ~trace_id ~latency_ms reply ->
      (* The join's trace id tags its latency sample as an exemplar. *)
      Simkit.Trace.observe ~trace_id exp_trace "join_ms" latency_ms;
      match auditor with Some a -> Nearby.Audit.sample_reply a ~peer ~reply | None -> ());
  Cluster_run.settle run;
  let rpc_trace = Simkit.Rpc.trace run.rpc in
  let cluster = run.cluster in
  let cluster_trace = Nearby.Cluster.trace cluster in
  let transport_stat name = List.assoc name (Simkit.Transport.stats run.transport) in
  let quantile q =
    match Simkit.Trace.quantile exp_trace "join_ms" q with Some v -> v | None -> nan
  in
  let live_peer_counts =
    List.init (Nearby.Cluster.replica_count cluster) (fun i -> i)
    |> List.filter (Nearby.Cluster.is_alive cluster)
    |> List.map (fun i -> Nearby.Server.peer_count (Nearby.Cluster.server_of cluster i))
  in
  {
    scenario = config.scenario;
    replicas = config.replicas;
    loss = config.loss;
    joins = config.peers;
    completed = run.completed;
    failed = run.failed;
    completion_rate = float_of_int run.completed /. float_of_int config.peers;
    join_p50_ms = quantile 0.5;
    join_p99_ms = quantile 0.99;
    rpc_attempts = Simkit.Trace.counter rpc_trace "rpc_attempts";
    rpc_retries = Simkit.Trace.counter rpc_trace "rpc_retries";
    rpc_timeouts = Simkit.Trace.counter rpc_trace "rpc_timeouts";
    rpc_gave_up = Simkit.Trace.counter rpc_trace "rpc_gave_up";
    suspicions = Simkit.Trace.counter cluster_trace "cluster_suspected";
    sync_rounds = Simkit.Trace.counter cluster_trace "cluster_sync_rounds";
    recovery_ms =
      (match Simkit.Trace.summary cluster_trace "cluster_recovery_ms" with
      | Some s when s.count > 0 -> Some s.mean
      | _ -> None);
    consistent = Nearby.Cluster.consistent cluster;
    live_peer_counts;
    dropped_loss = transport_stat "dropped_loss";
    dropped_unreachable = transport_stat "dropped_unreachable";
    dropped_partition = transport_stat "dropped_partition";
    slo_breaches = List.rev !breached_ever;
  },
  {
    exp_trace;
    rpc_trace;
    cluster_trace;
    transport_counters = Simkit.Transport.stats run.transport;
    audit_trace = Option.map Nearby.Audit.trace auditor;
    timeseries;
    recorder;
    slo_statuses = Simkit.Slo.check timeseries config.slos;
  }

let run config = fst (run_instrumented config)

let result_json (r : result) =
  let fl v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  Printf.sprintf
    {|{"scenario": %s, "replicas": %d, "loss": %.3f, "joins": %d, "completed": %d, "failed": %d, "completion_rate": %.4f, "join_p50_ms": %s, "join_p99_ms": %s, "rpc_attempts": %d, "rpc_retries": %d, "rpc_timeouts": %d, "rpc_gave_up": %d, "suspicions": %d, "sync_rounds": %d, "recovery_ms": %s, "consistent": %b, "live_peer_counts": [%s], "dropped_loss": %d, "dropped_unreachable": %d, "dropped_partition": %d, "slo_breaches": [%s]}|}
    (Simkit.Json_str.quote r.scenario) r.replicas r.loss r.joins r.completed r.failed
    r.completion_rate (fl r.join_p50_ms) (fl r.join_p99_ms) r.rpc_attempts r.rpc_retries
    r.rpc_timeouts r.rpc_gave_up r.suspicions r.sync_rounds
    (match r.recovery_ms with Some v -> Printf.sprintf "%.1f" v | None -> "null")
    r.consistent
    (String.concat ", " (List.map string_of_int r.live_peer_counts))
    r.dropped_loss r.dropped_unreachable r.dropped_partition
    (String.concat ", " (List.map Simkit.Json_str.quote r.slo_breaches))

(* Deterministic in the seed (simulated clock, no wall time), so exact. *)
let gates (r : result) =
  let key = Printf.sprintf "resilience/%s/r%d/%s" r.scenario r.replicas in
  Regression.
    [
      exact (key "completion_rate") r.completion_rate;
      exact (key "join_p99_ms") r.join_p99_ms;
      flag (key "consistent") r.consistent;
    ]

let print (r : result) =
  Printf.printf "Resilience: scenario=%s replicas=%d loss=%.2f\n" r.scenario r.replicas r.loss;
  Prelude.Table.print
    ~header:[ "metric"; "value" ]
    [
      [ "joins"; string_of_int r.joins ];
      [ "completed"; string_of_int r.completed ];
      [ "failed"; string_of_int r.failed ];
      [ "completion rate"; Prelude.Table.float_cell ~decimals:4 r.completion_rate ];
      [ "join p50 (ms)"; Prelude.Table.float_cell ~decimals:1 r.join_p50_ms ];
      [ "join p99 (ms)"; Prelude.Table.float_cell ~decimals:1 r.join_p99_ms ];
      [ "rpc attempts"; string_of_int r.rpc_attempts ];
      [ "rpc retries"; string_of_int r.rpc_retries ];
      [ "rpc timeouts"; string_of_int r.rpc_timeouts ];
      [ "rpc gave up"; string_of_int r.rpc_gave_up ];
      [ "suspicions"; string_of_int r.suspicions ];
      [ "sync rounds"; string_of_int r.sync_rounds ];
      [
        "recovery (ms)";
        (match r.recovery_ms with
        | Some v -> Prelude.Table.float_cell ~decimals:1 v
        | None -> "-");
      ];
      [ "consistent"; string_of_bool r.consistent ];
      [
        "live peer counts";
        String.concat " " (List.map string_of_int r.live_peer_counts);
      ];
      [ "dropped (loss)"; string_of_int r.dropped_loss ];
      [ "dropped (unreachable)"; string_of_int r.dropped_unreachable ];
      [ "dropped (partition)"; string_of_int r.dropped_partition ];
      [ "slo breaches"; (match r.slo_breaches with [] -> "-" | l -> String.concat " " l) ];
    ]
