(* flash-churn: an open-loop flash crowd through Admission into one
   server.  Admitted arrivals register in drain-tick batches and query
   their neighbors; sessions end in a leave or a handover (leave, then a
   re-join from another landmark's region), so batch writes, deletes and
   reads hit the same registry.  No Rpc, no Cluster. *)

open Common

type params = {
  routers : int;
  landmarks : int;
  k : int;
  base_per_s : float;
  spike_per_s : float;
  spike_at_s : float;
  spike_len_s : float;
  duration_ms : float;
  service_per_s : float;
  batch : int;
  queue_cap : int;
  session_mean_ms : float;
  handover_frac : float;
}

(* The service rate is provisioned above the spike plus the handover
   re-joins it triggers, so the queue absorbs the crowd and nothing is
   shed: every submission completes. *)
let params = function
  | Full ->
      {
        routers = 2000;
        landmarks = 8;
        k = 5;
        base_per_s = 5_000.0;
        spike_per_s = 40_000.0;
        spike_at_s = 1.0;
        spike_len_s = 0.75;
        duration_ms = 3_000.0;
        service_per_s = 60_000.0;
        batch = 64;
        queue_cap = 20_000;
        session_mean_ms = 2_000.0;
        handover_frac = 0.3;
      }
  | Tiny ->
      {
        routers = 300;
        landmarks = 8;
        k = 5;
        base_per_s = 250.0;
        spike_per_s = 2_000.0;
        spike_at_s = 0.5;
        spike_len_s = 0.5;
        duration_ms = 2_000.0;
        service_per_s = 3_000.0;
        batch = 64;
        queue_cap = 1_000;
        session_mean_ms = 500.0;
        handover_frac = 0.3;
      }

(* The load experiment's SLO shedder with a 1 s join budget and 250 ms
   windows: p99 queueing delay capped at 15% of the budget. *)
let window_ms = 250.0

let policy =
  Nearby.Admission.slo_shed ~lookback:2 ~burn_threshold:0.5 ~poll_every_ms:(window_ms /. 2.0)
    ~wait_p99_limit_ms:150.0 ()

type inputs = {
  p : params;
  oracle : Traceroute.Route_oracle.t;
  landmarks : Topology.Graph.node array;
  memo : (Topology.Graph.node, Nearby.Server.measurement) Hashtbl.t;
  arrivals : float array;
  routers : Topology.Graph.node array;
  (* Session draws, consumed in completion order. *)
  dwell_ms : float array;
  handover : bool array;
  pick : int array;
  other_region : (Topology.Graph.node, Topology.Graph.node array) Hashtbl.t;
}

let setup (p : params) ~seed =
  let d = deployment ~routers:p.routers ~landmarks:p.landmarks in
  let leaves = d.map.leaves in
  let memo = Query.measure_leaves (Nearby.Server.create d.oracle ~landmarks:d.landmarks) leaves in
  let rng = Prelude.Prng.create seed in
  let process =
    Simkit.Workload.Flash
      {
        base_per_s = p.base_per_s;
        spike_per_s = p.spike_per_s;
        spike_at_s = p.spike_at_s;
        spike_len_s = p.spike_len_s;
      }
  in
  let arrivals =
    Array.of_list (Simkit.Workload.arrival_times ~rng process ~until_ms:p.duration_ms)
  in
  let n = Array.length arrivals in
  let routers = attach_routers d rng n in
  (* Each completion draws one session; handovers re-join and draw again,
     so twice the arrivals is ample (the pool wraps if it is not). *)
  let pool = 2 * n in
  let dwell_ms = Array.init pool (fun _ -> Prelude.Prng.exponential rng ~mean:p.session_mean_ms) in
  let handover = Array.init pool (fun _ -> Prelude.Prng.unit_float rng < p.handover_frac) in
  let pick = Array.init pool (fun _ -> Prelude.Prng.int rng (1 lsl 30)) in
  let other_region = Hashtbl.create 8 in
  Array.iter
    (fun lmk ->
      let others =
        Array.of_list
          (List.filter
             (fun leaf -> Nearby.Server.measurement_landmark (Hashtbl.find memo leaf) <> lmk)
             (Array.to_list leaves))
      in
      Hashtbl.add other_region lmk (if Array.length others = 0 then leaves else others))
    d.landmarks;
  warm_oracle d.oracle d.landmarks;
  {
    p;
    oracle = d.oracle;
    landmarks = d.landmarks;
    memo;
    arrivals;
    routers;
    dwell_ms;
    handover;
    pick;
    other_region;
  }

type pass = {
  engine : Simkit.Engine.t;
  server : Nearby.Server.t;
  totals : Nearby.Admission.totals;
  completed : int;
  leaves : int;
  handovers : int;
  latencies : Samples.t;  (* simulated ms, arrival to registration *)
}

let run_pass inp ~labeled ~timed =
  let p = inp.p in
  let traced = !Prof.on in
  let completed = ref 0 and leaves = ref 0 and handovers = ref 0 and draw = ref 0 in
  let pending = ref [] in
  let latencies = Samples.create () in
  let pool = Array.length inp.dwell_ms in
  let horizon =
    p.duration_ms +. (1000.0 *. float_of_int p.queue_cap /. p.service_per_s) +. 5_000.0
  in
  Prof.span Prof.bench_harness @@ fun () ->
  let engine = Simkit.Engine.create () in
  let server =
    Nearby.Server.create ~backend:(Timed_registry.backend ~timed) inp.oracle
      ~landmarks:inp.landmarks
  in
  let metrics = if labeled then Some (Simkit.Metrics.create ()) else None in
  let timeseries =
    Simkit.Timeseries.create
      ~capacity:(int_of_float (horizon /. window_ms) + 8)
      ~window_ms ()
  in
  let flush = ref (fun () -> ()) in
  let admission =
    Nearby.Admission.create ~engine ?metrics ~timeseries
      ~on_drain:(fun ~served:_ -> !flush ())
      {
        Nearby.Admission.capacity = p.queue_cap;
        service_rate_per_s = p.service_per_s;
        batch = p.batch;
        policy;
      }
  in
  (* One request: measure (memoized per leaf), submit after the
     measurement time, wait in [pending] for the drain tick. *)
  let rec enqueue ~peer ~router ~started =
    let m = Hashtbl.find inp.memo router in
    Simkit.Engine.schedule engine ~delay:(Nearby.Server.measurement_duration_ms m)
      (fun () ->
        let serve ~queued_ms:_ = pending := (peer, router, m, started) :: !pending in
        let shed ~reason:_ = () in
        if traced then
          Prof.span Prof.admission_submit (fun () ->
              Nearby.Admission.submit admission ~serve ~shed)
        else Nearby.Admission.submit admission ~serve ~shed)
  and depart ~peer ~now =
    let j = !draw mod pool in
    incr draw;
    let at = now +. inp.dwell_ms.(j) in
    if at <= p.duration_ms then
      Simkit.Engine.schedule_at engine ~time:at (fun () ->
          match Nearby.Server.info server peer with
          | None -> ()
          | Some info ->
              Prof.span Prof.server_leave (fun () -> Nearby.Server.leave server ~peer);
              if inp.handover.(j) then begin
                incr handovers;
                let others = Hashtbl.find inp.other_region info.landmark in
                enqueue ~peer
                  ~router:others.(inp.pick.(j) mod Array.length others)
                  ~started:at
              end
              else incr leaves)
  in
  (flush :=
     fun () ->
       let entries = Array.of_list (List.rev !pending) in
       pending := [];
       let batch = Array.map (fun (peer, router, m, _) -> (peer, router, m)) entries in
       ignore
         (Prof.span Prof.server_register_batch (fun () ->
              Nearby.Server.register_measured_batch server batch));
       let now = Simkit.Engine.now engine in
       Array.iter
         (fun (peer, _, _, started) ->
           incr completed;
           Samples.add latencies (now -. started);
           if traced then
             ignore
               (Prof.span Prof.server_neighbors (fun () ->
                    Nearby.Server.neighbors server ~peer ~k:p.k))
           else ignore (Nearby.Server.neighbors server ~peer ~k:p.k);
           depart ~peer ~now)
         entries);
  Array.iteri
    (fun peer at ->
      Simkit.Engine.schedule_at engine ~time:at (fun () ->
          enqueue ~peer ~router:inp.routers.(peer) ~started:at))
    inp.arrivals;
  drive engine ~horizon ~settled:(ref 0) ~n:max_int;
  {
    engine;
    server;
    totals = Nearby.Admission.totals admission;
    completed = !completed;
    leaves = !leaves;
    handovers = !handovers;
    latencies;
  }

let fingerprint (ps : pass) =
  ( ps.completed,
    ps.totals.submitted,
    ps.leaves,
    ps.handovers,
    Samples.sum ps.latencies,
    Simkit.Engine.processed ps.engine )

let checks inp (ps : pass) ~cached =
  let t = ps.totals in
  let invariants =
    match Nearby.Server.check_invariants ps.server with () -> true | exception _ -> false
  in
  [
    ("completed = admitted", ps.completed = t.admitted);
    ("submitted = admitted + shed", t.submitted = t.admitted + t.shed_total);
    ( "registered = completed - departed",
      Nearby.Server.peer_count ps.server = ps.completed - ps.leaves - ps.handovers );
    ("server invariants hold", invariants);
    ( "no route tree built in the timed phase",
      Traceroute.Route_oracle.cached_destinations inp.oracle = cached );
  ]

let wire_bytes server = Simkit.Trace.counter (Nearby.Server.trace server) "wire_bytes"

let run (opts : opts) =
  let p = params opts.scale in
  let setup_times = if opts.traced then 1 else 5 in
  let setup_s, inp = setup_repeated ~times:setup_times (fun () -> setup p ~seed:opts.seed) in
  let cached = Traceroute.Route_oracle.cached_destinations inp.oracle in
  let untraced, last = keeping (fun () -> run_pass inp ~labeled:true ~timed:false) in
  if not opts.traced then begin
    let w = run_window ~seconds:opts.seconds untraced in
    let ps = last () in
    let lat = Samples.quantiles ps.latencies [ 0.5; 0.99 ] in
    let bytes = per (float_of_int (wire_bytes ps.server)) ps.completed in
    let n = Printf.sprintf "n=%d" (Samples.count ps.latencies) in
    {
      attempted = ps.totals.submitted;
      failed = ps.totals.shed_total;
      checks = checks inp ps ~cached;
      metrics =
        [
          ("setup_s", setup_s);
          ("ops_per_s", float_of_int ps.completed /. w.median_pass_s);
          ("latency_p50_ms", List.nth lat 0);
          ("latency_p99_ms", List.nth lat 1);
          ("alloc_words_per_op", w.gc.alloc_words /. float_of_int (ps.completed * w.passes));
          ( "state_bytes_per_member",
            state_bytes_per_member ~oracle:inp.oracle
              ~members:(Nearby.Server.peer_count ps.server)
              ps.server );
          ("client_bytes_per_op", bytes);
          ("wire_bytes_per_op", bytes);
        ];
      notes =
        [
          ("setup_s", Printf.sprintf "median of %d set-ups" setup_times);
          ( "ops_per_s",
            Printf.sprintf "median of %d passes of %d served registrations" w.passes ps.completed );
          ("latency_p50_ms", n);
          ("latency_p99_ms", n);
        ];
    }
  end
  else begin
    let traced, traced_last =
      keeping (fun () ->
          Prof.start ~keep_spans:(opts.trace_file <> None);
          let ps = run_pass inp ~labeled:true ~timed:true in
          Prof.stop ();
          ps)
    in
    let detached, detached_last = keeping (fun () -> run_pass inp ~labeled:false ~timed:false) in
    let before = ref [] in
    let windows =
      run_windows ~seconds:opts.seconds
        ~warmed:(fun () -> before := Prof.snapshot ())
        [| untraced; traced; detached |]
    in
    let ps = last () in
    let same =
      let fp = fingerprint ps in
      fp = fingerprint (traced_last ()) && fp = fingerprint (detached_last ())
    in
    {
      attempted = ps.totals.submitted;
      failed = ps.totals.shed_total;
      checks = checks inp ps ~cached @ [ ("traced and untraced passes agree", same) ];
      notes = [];
      metrics =
        Layers.common ~before:!before ~ops_per_pass:ps.completed ~untraced:windows.(0)
          ~traced:windows.(1) ~obs:(Some windows.(2)) ~server:ps.server ~neighbor_us:None
        @ [
            ( "engine.events_per_op",
              per (float_of_int (Simkit.Engine.processed ps.engine)) ps.completed );
            ("admission.max_depth", float_of_int ps.totals.max_depth);
            ("admission.drains_per_op", per (float_of_int ps.totals.drains) ps.completed);
          ];
    }
  end
