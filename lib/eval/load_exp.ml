type config = {
  routers : int;
  landmark_count : int;
  k : int;
  arrival : Simkit.Workload.process;
  duration_ms : float;
  service_rate_per_s : float;
  batch : int;
  queue_cap : int;
  policy : string;
  deadline_ms : float option;
  wait_budget_ms : float option;
  slo_budget_ms : float;
  churn : Simkit.Workload.churn;
  window_ms : float;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    landmark_count = 8;
    k = 5;
    arrival =
      Simkit.Workload.Flash
        { base_per_s = 100.0; spike_per_s = 800.0; spike_at_s = 2.0; spike_len_s = 4.0 };
    duration_ms = 10_000.0;
    service_rate_per_s = 400.0;
    batch = 16;
    queue_cap = 1200;
    policy = "slo";
    deadline_ms = None;
    wait_budget_ms = None;
    slo_budget_ms = 1_000.0;
    churn = Simkit.Workload.no_churn;
    window_ms = 250.0;
    seed = 1;
  }

let quick_config = { default_config with routers = 800 }

(* Defaults put the flash peak (and the diurnal crest) at 2x the service
   rate, so the headline comparison works out of the box. *)
let arrival ?rate_per_s ?spike_per_s ?(spike_at_s = 2.0) ?(spike_len_s = 4.0) ?(amplitude = 0.5)
    ?(period_s = 60.0) ~service_rate_per_s:service name =
  let open Simkit.Workload in
  let rate default = Option.value rate_per_s ~default in
  match name with
  | "poisson" -> Ok (Poisson { rate_per_s = rate (0.8 *. service) })
  | "diurnal" ->
      Ok (Diurnal { base_per_s = rate (2.0 *. service /. (1.0 +. amplitude)); amplitude; period_s })
  | "flash" ->
      let spike_per_s = Option.value spike_per_s ~default:(2.0 *. service) in
      Ok (Flash { base_per_s = rate (0.25 *. service); spike_per_s; spike_at_s; spike_len_s })
  | other -> Error (Printf.sprintf "unknown arrival process %S (poisson|diurnal|flash)" other)

let policies = [ "drop-tail"; "deadline"; "slo" ]

type result = {
  arrival : string;
  policy : string;
  peak_rate_per_s : float;
  service_rate_per_s : float;
  saturation : float;
  offered : int;
  submitted : int;
  admitted : int;
  completed : int;
  completion_rate : float;
  shed : (string * int) list;
  shed_fraction : float;
  goodput_per_s : float;
  join_p50_ms : float;
  join_p99_ms : float;
  wait_p50_ms : float;
  wait_p99_ms : float;
  max_queue_depth : int;
  slo_budget_ms : float;
  p99_within_budget : bool;
  slo_sheds_opened : int;
  leaves : int;
  handovers : int;
  final_peers : int;
}

type artifacts = {
  exp_trace : Simkit.Trace.t;
  server_trace : Simkit.Trace.t;
  metrics : Simkit.Metrics.t;
  timeseries : Simkit.Timeseries.t;
  recorder : Simkit.Flight_recorder.t;
  totals : Nearby.Admission.totals;
}

let policy_of (config : config) =
  let budget = config.slo_budget_ms in
  match config.policy with
  | "drop-tail" -> Nearby.Admission.Drop_tail
  | "deadline" ->
      Nearby.Admission.Deadline
        { max_wait_ms = Option.value config.deadline_ms ~default:(0.8 *. budget) }
  | "slo" ->
      Nearby.Admission.slo_shed ~lookback:2 ~burn_threshold:0.5
        ~poll_every_ms:(Float.max 20.0 (config.window_ms /. 2.0))
        ~wait_p99_limit_ms:(Option.value config.wait_budget_ms ~default:(0.15 *. budget))
        ()
  | other ->
      invalid_arg
        (Printf.sprintf "Load_exp: unknown policy %S (expected %s)" other
           (String.concat " | " policies))

let run_instrumented (config : config) =
  if config.duration_ms <= 0.0 then invalid_arg "Load_exp: duration must be positive";
  if config.slo_budget_ms <= 0.0 then invalid_arg "Load_exp: slo budget must be positive";
  if config.window_ms <= 0.0 then invalid_arg "Load_exp: window must be positive";
  Simkit.Workload.validate config.arrival;
  Simkit.Workload.validate_churn config.churn;
  let w =
    Workload.build ~routers:config.routers ~landmark_count:config.landmark_count ~peers:1
      ~seed:config.seed ()
  in
  let leaves = w.map.leaves in
  let engine = Simkit.Engine.create () in
  let server = Nearby.Server.create w.ctx.oracle ~landmarks:w.landmarks in
  let client = Nearby.Client.create w.ctx.oracle ~landmarks:w.landmarks in
  let metrics = Simkit.Metrics.create () in
  let recorder = Simkit.Flight_recorder.create ~capacity:1024 () in
  (* Horizon: arrivals stop at [duration_ms]; whatever is queued then drains
     at the service rate (plus handover measurement tails and slack). *)
  let drain_ms = 1000.0 *. float_of_int config.queue_cap /. config.service_rate_per_s in
  let horizon = config.duration_ms +. drain_ms +. 5_000.0 in
  let ts =
    Simkit.Timeseries.create
      ~capacity:(max 64 (int_of_float (horizon /. config.window_ms) + 8))
      ~window_ms:config.window_ms ()
  in
  let exp_trace = Simkit.Trace.create () in
  let arrival_rng = Prelude.Prng.split w.rng in
  let router_rng = Prelude.Prng.split w.rng in
  let churn_rng = Prelude.Prng.split w.rng in
  (* Round 1 is deterministic per attachment router (no probe rng), so a
     crowd arriving at the same leaf shares one measurement. *)
  let memo : (Topology.Graph.node, Nearby.Client.measurement) Hashtbl.t = Hashtbl.create 1024 in
  let measure_of router =
    match Hashtbl.find_opt memo router with
    | Some m -> m
    | None ->
        let m = Nearby.Client.measure client ~attach_router:router in
        Hashtbl.add memo router m;
        m
  in
  let pick_router () = leaves.(Prelude.Prng.int router_rng (Array.length leaves)) in
  (* A handover re-attaches in another landmark's region: redraw until the
     memoized measurement elects a different landmark (bounded tries — tiny
     maps may have a dominant region). *)
  let pick_other_region ~old_landmark =
    let rec go tries fallback =
      if tries = 0 then fallback
      else
        let r = pick_router () in
        if (measure_of r).landmark <> old_landmark then r
        else go (tries - 1) r
    in
    go 8 (pick_router ())
  in
  let pending = ref [] in
  let completed = ref 0 in
  let left = ref 0 in
  let handovers = ref 0 in
  let flush_impl = ref (fun () -> ()) in
  let admission =
    Nearby.Admission.create ~engine ~metrics ~timeseries:ts ~recorder
      ~on_drain:(fun ~served:_ -> !flush_impl ())
      {
        Nearby.Admission.capacity = config.queue_cap;
        service_rate_per_s = config.service_rate_per_s;
        batch = config.batch;
        policy = policy_of config;
      }
  in
  (* One request's life: measure at the arrival time, submit the
     registration after the measurement duration, and (when admitted) land
     in [pending] until the drain tick's batch flush registers it. *)
  let enqueue_request ~peer ~router ~kind =
    let started = Simkit.Engine.now engine in
    Simkit.Timeseries.observe ts "join_started" ~now:started 1.0;
    let meas = measure_of router in
    Simkit.Engine.schedule engine ~delay:(Nearby.Client.duration_ms meas) (fun () ->
        Nearby.Admission.submit admission
          ~serve:(fun ~queued_ms:_ -> pending := (peer, router, meas, started, kind) :: !pending)
          ~shed:(fun ~reason:_ ->
            Simkit.Timeseries.observe ts "join_shed" ~now:(Simkit.Engine.now engine) 1.0))
  in
  let rec maybe_schedule_departure ~peer ~now =
    match Simkit.Workload.draw_departure config.churn ~rng:churn_rng with
    | None -> ()
    | Some (dwell, kind) ->
        let at = now +. dwell in
        if at <= config.duration_ms then
          Simkit.Engine.schedule_at engine ~time:at (fun () ->
              if Nearby.Server.mem server peer then
                match kind with
                | Simkit.Churn.Leave | Simkit.Churn.Crash ->
                    Nearby.Server.leave server ~peer;
                    incr left;
                    Simkit.Timeseries.observe ts "peer_left"
                      ~now:(Simkit.Engine.now engine) 1.0
                | Simkit.Churn.Handover ->
                    let old_landmark =
                      match Nearby.Server.info server peer with
                      | Some info -> info.Nearby.Server.landmark
                      | None -> w.landmarks.(0)
                    in
                    Nearby.Server.leave server ~peer;
                    incr handovers;
                    enqueue_request ~peer
                      ~router:(pick_other_region ~old_landmark)
                      ~kind:`Handover)
  and flush () =
    let entries = List.rev !pending in
    pending := [];
    if entries <> [] then begin
      let batch =
        Array.of_list (List.map (fun (peer, router, meas, _, _) -> (peer, router, meas)) entries)
      in
      ignore (Nearby.Server.register_measured_batch server batch);
      let now = Simkit.Engine.now engine in
      List.iter
        (fun (peer, _router, _meas, started, kind) ->
          incr completed;
          let dt = now -. started in
          Simkit.Trace.observe exp_trace "join_ms" dt;
          Simkit.Timeseries.observe ts "join_ms" ~now dt;
          Simkit.Timeseries.observe ts "join_completed" ~now 1.0;
          (match kind with
          | `Handover -> Simkit.Trace.observe exp_trace "handover_ms" dt
          | `Join -> ());
          ignore (Nearby.Server.neighbors server ~peer ~k:config.k);
          maybe_schedule_departure ~peer ~now)
        entries
    end
  in
  flush_impl := flush;
  let offered =
    Simkit.Workload.install ~engine ~rng:arrival_rng config.arrival
      ~until_ms:config.duration_ms
      ~on_arrival:(fun i -> enqueue_request ~peer:i ~router:(pick_router ()) ~kind:`Join)
  in
  Simkit.Engine.run engine ~until:horizon;
  let totals = Nearby.Admission.totals admission in
  (* The experiment's wait stream is Admission's, listed once more. *)
  let wait = Nearby.Admission.wait_series_name in
  if totals.admitted > 0 then
    Simkit.Trace.bind_stream exp_trace wait (Simkit.Metrics.stream_ref metrics wait ~labels:[]);
  let quantile name q =
    match Simkit.Trace.quantile exp_trace name q with Some v -> v | None -> nan
  in
  let peak = Simkit.Workload.peak_rate config.arrival in
  let join_p99 = quantile "join_ms" 0.99 in
  let result =
    {
      arrival = Simkit.Workload.describe config.arrival;
      policy = config.policy;
      peak_rate_per_s = peak;
      service_rate_per_s = config.service_rate_per_s;
      saturation = peak /. config.service_rate_per_s;
      offered;
      submitted = totals.Nearby.Admission.submitted;
      admitted = totals.Nearby.Admission.admitted;
      completed = !completed;
      completion_rate =
        (if totals.Nearby.Admission.admitted = 0 then 1.0
         else float_of_int !completed /. float_of_int totals.Nearby.Admission.admitted);
      shed = totals.Nearby.Admission.shed;
      shed_fraction =
        (if totals.Nearby.Admission.submitted = 0 then 0.0
         else
           float_of_int totals.Nearby.Admission.shed_total
           /. float_of_int totals.Nearby.Admission.submitted);
      goodput_per_s = float_of_int !completed /. (config.duration_ms /. 1000.0);
      join_p50_ms = quantile "join_ms" 0.5;
      join_p99_ms = join_p99;
      wait_p50_ms = quantile wait 0.5;
      wait_p99_ms = quantile wait 0.99;
      max_queue_depth = totals.Nearby.Admission.max_depth;
      slo_budget_ms = config.slo_budget_ms;
      p99_within_budget = (not (Float.is_nan join_p99)) && join_p99 <= config.slo_budget_ms;
      slo_sheds_opened = totals.Nearby.Admission.slo_sheds_opened;
      leaves = !left;
      handovers = !handovers;
      final_peers = Nearby.Server.peer_count server;
    }
  in
  ( result,
    {
      exp_trace;
      server_trace = Nearby.Server.trace server;
      metrics;
      timeseries = ts;
      recorder;
      totals;
    } )

let run config = fst (run_instrumented config)

let result_json (r : result) =
  let fl v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  let shed =
    String.concat ", "
      (List.map
         (fun (reason, n) -> Printf.sprintf "%s: %d" (Simkit.Json_str.quote reason) n)
         r.shed)
  in
  Printf.sprintf
    {|{"arrival": %s, "policy": %s, "peak_rate_per_s": %.1f, "service_rate_per_s": %.1f, "saturation": %.3f, "offered": %d, "submitted": %d, "admitted": %d, "completed": %d, "completion_rate": %.4f, "shed": {%s}, "shed_fraction": %.4f, "goodput_per_s": %.2f, "join_p50_ms": %s, "join_p99_ms": %s, "wait_p50_ms": %s, "wait_p99_ms": %s, "max_queue_depth": %d, "slo_budget_ms": %.1f, "p99_within_budget": %b, "slo_sheds_opened": %d, "leaves": %d, "handovers": %d, "final_peers": %d}|}
    (Simkit.Json_str.quote r.arrival)
    (Simkit.Json_str.quote r.policy)
    r.peak_rate_per_s r.service_rate_per_s r.saturation r.offered r.submitted r.admitted
    r.completed r.completion_rate shed r.shed_fraction r.goodput_per_s (fl r.join_p50_ms)
    (fl r.join_p99_ms) (fl r.wait_p50_ms) (fl r.wait_p99_ms) r.max_queue_depth r.slo_budget_ms
    r.p99_within_budget r.slo_sheds_opened r.leaves r.handovers r.final_peers

let gates (r : result) =
  let key = Printf.sprintf "load/%s/%s/%s" r.arrival r.policy in
  Regression.
    [
      gate (key "completion_rate") r.completion_rate Higher_better 0.02;
      gate (key "join_p99_ms") r.join_p99_ms Lower_better 0.15;
      gate (key "goodput_per_s") r.goodput_per_s Higher_better 0.1;
      gate (key "shed_fraction") r.shed_fraction Lower_better 0.2;
      (* The headline bit: under the flash crowd the SLO shedder holds the
         admitted p99 inside the budget, drop-tail does not. *)
      flag (key "p99_within_budget") r.p99_within_budget;
      flag (key "sheds_when_saturated") (r.saturation > 1.0 = (r.shed_fraction > 0.0));
    ]

let print (r : result) =
  Printf.printf "Load: arrival=%s policy=%s saturation=%.2fx\n" r.arrival r.policy r.saturation;
  Prelude.Table.print
    ~header:[ "metric"; "value" ]
    [
      [ "offered"; string_of_int r.offered ];
      [ "submitted"; string_of_int r.submitted ];
      [ "admitted"; string_of_int r.admitted ];
      [ "completed"; string_of_int r.completed ];
      [ "completion rate"; Prelude.Table.float_cell ~decimals:4 r.completion_rate ];
      [
        "shed";
        (match r.shed with
        | [] -> "-"
        | l -> String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) l));
      ];
      [ "shed fraction"; Prelude.Table.float_cell ~decimals:4 r.shed_fraction ];
      [ "goodput (/s)"; Prelude.Table.float_cell ~decimals:1 r.goodput_per_s ];
      [ "join p50 (ms)"; Prelude.Table.float_cell ~decimals:1 r.join_p50_ms ];
      [ "join p99 (ms)"; Prelude.Table.float_cell ~decimals:1 r.join_p99_ms ];
      [ "wait p50 (ms)"; Prelude.Table.float_cell ~decimals:1 r.wait_p50_ms ];
      [ "wait p99 (ms)"; Prelude.Table.float_cell ~decimals:1 r.wait_p99_ms ];
      [ "max queue depth"; string_of_int r.max_queue_depth ];
      [ "slo budget (ms)"; Prelude.Table.float_cell ~decimals:1 r.slo_budget_ms ];
      [ "p99 within budget"; string_of_bool r.p99_within_budget ];
      [ "slo sheds opened"; string_of_int r.slo_sheds_opened ];
      [ "leaves"; string_of_int r.leaves ];
      [ "handovers"; string_of_int r.handovers ];
      [ "final peers"; string_of_int r.final_peers ];
    ]
