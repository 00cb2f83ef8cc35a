(* join-steady and join-lossy: singleton resilient joins, Poisson on the
   simulated clock, through Protocol -> Rpc -> Transport/Wire -> Cluster
   -> Server -> registry on a 3-replica cluster with anti-entropy.  A pass
   replays the seed's join stream on a fresh stack. *)

open Common

type params = {
  routers : int;
  landmarks : int;
  k : int;
  joins : int;
  rate_per_s : float;
  replicas : int;
  sync_period_ms : float;
}

let params = function
  | Full ->
      {
        routers = 2000;
        landmarks = 8;
        k = 5;
        joins = 10_000;
        rate_per_s = 2000.0;
        replicas = 3;
        sync_period_ms = 1000.0;
      }
  | Tiny ->
      {
        routers = 300;
        landmarks = 8;
        k = 5;
        joins = 400;
        rate_per_s = 200.0;
        replicas = 3;
        sync_period_ms = 500.0;
      }

(* join-lossy's burst: 30% of messages lost over 25-60% of the arrival
   window. *)
let loss_prob = 0.3
let loss_from = 0.25
let loss_until = 0.6

(* The retry budget (16 attempts, at least 1.16 s apart) and the detector
   timeout both outlast the burst (1.75 s), so under the burst every
   join still completes and no replica is falsely suspected: the burst
   drives timeouts, retries, dropped bytes and anti-entropy repair, and no
   operation fails.  Without loss neither setting comes into play. *)
let rpc_config =
  {
    Simkit.Rpc.timeout_ms = 1000.0;
    max_attempts = 16;
    backoff_base_ms = 200.0;
    backoff_multiplier = 1.0;
    jitter_frac = 0.2;
  }

let detector_config = { Simkit.Failure_detector.default_config with timeout_ms = 20_000.0 }

type inputs = {
  p : params;
  seed : int;
  oracle : Traceroute.Route_oracle.t;
  landmarks : Topology.Graph.node array;
  peer_routers : Topology.Graph.node array;
  arrivals : float array;
  replica_routers : Topology.Graph.node array;
  client_router : Topology.Graph.node;
  window_ms : float;
}

let setup (p : params) ~seed =
  let d = deployment ~routers:p.routers ~landmarks:p.landmarks in
  let replica_routers =
    Nearby.Landmark.place d.map.graph Nearby.Landmark.Medium_degree ~count:p.replicas
      ~rng:d.placement
  in
  let client_router = d.map.core.(0) in
  let rng = Prelude.Prng.create seed in
  let peer_routers = attach_routers d rng p.joins in
  (* A Poisson stream of [joins] arrivals over the window: the order
     statistics of uniform draws. *)
  let window_ms = 1000.0 *. float_of_int p.joins /. p.rate_per_s in
  let arrivals = Array.init p.joins (fun _ -> Prelude.Prng.float rng window_ms) in
  Array.sort Float.compare arrivals;
  warm_oracle d.oracle
    (Array.concat [ d.landmarks; replica_routers; [| client_router |]; peer_routers ]);
  {
    p;
    seed;
    oracle = d.oracle;
    landmarks = d.landmarks;
    peer_routers;
    arrivals;
    replica_routers;
    client_router;
    window_ms;
  }

(* No join can settle later than its arrival plus the whole retry budget. *)
let horizon inp =
  let c = rpc_config in
  let attempt = c.timeout_ms +. (c.backoff_base_ms *. (1.0 +. c.jitter_frac)) in
  inp.window_ms +. (float_of_int c.max_attempts *. attempt)

let make_server inp ~timed () =
  Nearby.Server.create ~backend:(Timed_registry.backend ~timed) inp.oracle ~landmarks:inp.landmarks

let restore_server inp ~timed data =
  Prof.span Prof.server_restore (fun () ->
      Nearby.Server.restore ~backend:(Timed_registry.backend ~timed) inp.oracle data)

(* The stack of one pass, fresh each time: engine, transport, cluster, rpc. *)
type stack = {
  engine : Simkit.Engine.t;
  transport : Simkit.Transport.t;
  metrics : Simkit.Metrics.t option;
  cluster : Nearby.Cluster.t;
  rpc : Simkit.Rpc.t;
}

let build_stack inp ~labeled ~timed =
  let engine = Simkit.Engine.create () in
  (* Every pass draws the same jitter and loss: the rng restarts from the
     seed. *)
  let rng = Prelude.Prng.create (inp.seed + 0x5eed) in
  let metrics = if labeled then Some (Simkit.Metrics.create ()) else None in
  let transport =
    Simkit.Transport.create ~rng:(Prelude.Prng.split rng) ?metrics engine inp.oracle
  in
  let cluster =
    Nearby.Cluster.create ~detector_config ?metrics ~transport ~client_router:inp.client_router
      ~make_server:(make_server inp ~timed) ~restore_server:(restore_server inp ~timed)
      ~routers:inp.replica_routers ()
  in
  let rpc =
    Simkit.Rpc.create ~config:rpc_config ~rng:(Prelude.Prng.split rng) ?labeled:metrics transport
  in
  { engine; transport; metrics; cluster; rpc }

type pass = {
  stack : stack;
  completed : int;
  failed : int;
  settle_counts : int array;
  latencies : Samples.t;  (* simulated ms, arrival to reply *)
  sync_rounds : int;
}

(* The full path: Protocol.join per arrival, bench-scheduled sync ticks,
   the loss burst on join-lossy. *)
let run_pass inp ~lossy ~sync ~labeled ~timed =
  let p = inp.p in
  let n = p.joins in
  let traced = !Prof.on in
  let completed = ref 0 and failed = ref 0 and settled = ref 0 and rounds = ref 0 in
  let settle_counts = Array.make n 0 in
  let latencies = Samples.create () in
  (* The bench's own work — building the stack, scheduling the inputs,
     stepping the engine — is the harness span; the layers' spans nest in
     it. *)
  Prof.span Prof.bench_harness @@ fun () ->
  let s = build_stack inp ~labeled ~timed in
  let protocol = Nearby.Protocol.create_resilient ~rpc:s.rpc s.cluster in
  if lossy then begin
    Simkit.Engine.schedule_at s.engine ~time:(loss_from *. inp.window_ms) (fun () ->
        Simkit.Transport.set_loss_prob s.transport loss_prob);
    Simkit.Engine.schedule_at s.engine ~time:(loss_until *. inp.window_ms) (fun () ->
        Simkit.Transport.set_loss_prob s.transport 0.0)
  end;
  (* Sync ticks sit mid-period, so every pass runs the same number of
     rounds however its last arrival falls. *)
  if sync then begin
    let rec tick at =
      if at < inp.window_ms then
        Simkit.Engine.schedule_at s.engine ~time:at (fun () ->
            incr rounds;
            Prof.span Prof.cluster_sync (fun () -> Nearby.Cluster.sync_round s.cluster);
            tick (at +. p.sync_period_ms))
    in
    tick (p.sync_period_ms /. 2.0)
  end;
  Array.iteri
    (fun peer at ->
      let attach_router = inp.peer_routers.(peer) in
      let settle () =
        settle_counts.(peer) <- settle_counts.(peer) + 1;
        incr settled
      in
      let on_complete _info _reply =
        settle ();
        incr completed;
        Samples.add latencies (Simkit.Engine.now s.engine -. at)
      in
      let on_failure () =
        settle ();
        incr failed
      in
      Simkit.Engine.schedule_at s.engine ~time:at (fun () ->
          if traced then
            Prof.span Prof.protocol_join (fun () ->
                Nearby.Protocol.join protocol ~peer ~attach_router ~k:p.k ~on_complete
                  ~on_failure)
          else
            Nearby.Protocol.join protocol ~peer ~attach_router ~k:p.k ~on_complete ~on_failure))
    inp.arrivals;
  drive s.engine ~horizon:(horizon inp) ~settled ~n;
  {
    stack = s;
    completed = !completed;
    failed = !failed;
    settle_counts;
    latencies;
    sync_rounds = !rounds;
  }

(* What must repeat exactly between passes and between traced and
   untraced runs: the simulated outcome. *)
let fingerprint (ps : pass) =
  ( ps.completed,
    ps.failed,
    Samples.sum ps.latencies,
    Simkit.Transport.bytes_sent ps.stack.transport,
    Simkit.Engine.processed ps.stack.engine,
    ps.sync_rounds )

(* --- Reading the labeled wire accounting back ---------------------------- *)

let labeled_sum metrics name ~where =
  List.fold_left
    (fun acc (n, labels, _) ->
      if n = name && where labels then acc + Simkit.Metrics.counter metrics name ~labels else acc)
    0 (Simkit.Metrics.series metrics)

let label labels key = Option.value (List.assoc_opt key labels) ~default:""

let wire_kind_bytes m kind =
  labeled_sum m "wire_bytes_total" ~where:(fun l -> label l "kind" = kind)

(* Client request + reply bytes: every join's upload, query and reply
   legs, retries included (the bytes-per-join definition of the wire
   experiment). *)
let client_bytes m =
  labeled_sum m "wire_bytes_total" ~where:(fun l -> List.mem (label l "dir") [ "request"; "reply" ])

(* --- Output checks, outside the timed phase ------------------------------ *)

let checks inp (ps : pass) ~cached =
  let s = ps.stack in
  let n = inp.p.joins in
  let wire_conserved =
    match s.metrics with
    | None -> true
    | Some m ->
        labeled_sum m "wire_bytes_total" ~where:(fun _ -> true)
        = Simkit.Transport.bytes_sent s.transport
        && labeled_sum m "wire_dropped_bytes_total" ~where:(fun _ -> true)
           = Simkit.Transport.bytes_dropped s.transport
  in
  Nearby.Cluster.sync_round s.cluster;
  let invariants =
    match Nearby.Cluster.check_invariants s.cluster with () -> true | exception _ -> false
  in
  [
    ("every join settled exactly once", Array.for_all (fun c -> c = 1) ps.settle_counts);
    ("completed + failed = joins", ps.completed + ps.failed = n);
    ("no join gave up", ps.failed = 0);
    ("replicas consistent after a final sync", Nearby.Cluster.consistent s.cluster);
    ("replica invariants hold", invariants);
    ("labeled wire bytes sum to transport bytes", wire_conserved);
    ( "no route tree built in the timed phase",
      Traceroute.Route_oracle.cached_destinations inp.oracle = cached );
  ]

(* --- Layer ladder: the same join stream with sync off ---------------------

   (a) Server only: measure, register and query on one standalone server,
       plus the replica apply on the other two;
   (b) Cluster: measure, then Cluster.handle_registration on the replica
       the client would target, the fan-out delivered by the engine;
   (c) the full Protocol.join path.
   Successive differences price the server, the cluster fan-out, and the
   rpc + transport layers per join. *)

let rung_a inp ~neighbor_us =
  let p = inp.p in
  let servers = Array.init p.replicas (fun _ -> make_server inp ~timed:false ()) in
  let s0 = servers.(0) in
  Array.iteri
    (fun peer attach_router ->
      let m = Nearby.Server.measure s0 ~attach_router in
      ignore (Nearby.Server.register_measured s0 ~peer ~attach_router m);
      let t0 = now_ns () in
      ignore (Nearby.Server.neighbors s0 ~peer ~k:p.k);
      Samples.add neighbor_us (float_of_int (now_ns () - t0) /. 1e3);
      for j = 1 to p.replicas - 1 do
        Nearby.Server.register_replica servers.(j) ~peer ~attach_router
          ~landmark:(Nearby.Server.measurement_landmark m)
          ~path:(Nearby.Server.measurement_path m)
          ~probes_spent:(Nearby.Server.measurement_probes m)
      done)
    inp.peer_routers

let rung_b inp =
  let p = inp.p in
  let s = build_stack inp ~labeled:true ~timed:false in
  let settled = ref 0 in
  Array.iteri
    (fun peer at ->
      let attach_router = inp.peer_routers.(peer) in
      Simkit.Engine.schedule_at s.engine ~time:at (fun () ->
          let m =
            Nearby.Server.measure (Nearby.Cluster.measurement_server s.cluster) ~attach_router
          in
          let replica =
            Option.get (Nearby.Cluster.target s.cluster ~src:attach_router ~attempt:1)
          in
          ignore
            (Nearby.Cluster.handle_registration s.cluster ~replica ~peer ~attach_router
               ~measurement:m ~k:p.k);
          incr settled))
    inp.arrivals;
  drive s.engine ~horizon:(horizon inp) ~settled ~n:p.joins

let rung_c inp = ignore (run_pass inp ~lossy:false ~sync:false ~labeled:true ~timed:false)

(* --- The run ------------------------------------------------------------- *)

(* Join-specific per-layer counters of one untraced pass. *)
let pass_layers (ps : pass) =
  let m = Option.get ps.stack.metrics in
  let rc name = float_of_int (Simkit.Trace.counter (Simkit.Rpc.trace ps.stack.rpc) name) in
  let cc name = float_of_int (Simkit.Trace.counter (Nearby.Cluster.trace ps.stack.cluster) name) in
  let tr = ps.stack.transport in
  let per_join v = per (float_of_int v) ps.completed in
  [
    ("engine.events_per_op", per_join (Simkit.Engine.processed ps.stack.engine));
    ("rpc.attempts_per_call", ratio (rc "rpc_attempts") (rc "rpc_calls"));
    ("rpc.timeouts_per_call", ratio (rc "rpc_timeouts") (rc "rpc_calls"));
    ("rpc.gave_up_per_call", ratio (rc "rpc_gave_up") (rc "rpc_calls"));
    ("transport.msgs_per_op", per_join (Simkit.Transport.messages_sent tr));
    ("transport.dropped_per_op", per_join (Simkit.Transport.messages_dropped tr));
    ("wire.path_report_bytes_per_op", per_join (wire_kind_bytes m "path_report"));
    ("wire.query_bytes_per_op", per_join (wire_kind_bytes m "query"));
    ("wire.reply_bytes_per_op", per_join (wire_kind_bytes m "reply"));
    ("wire.snapshot_bytes_per_op", per_join (wire_kind_bytes m "snapshot"));
    ("wire.fd_probe_bytes_per_op", per_join (wire_kind_bytes m "fd_probe"));
    ("wire.retry_bytes_per_op", per_join (wire_kind_bytes m "retry"));
    ("cluster.restores_per_round", ratio (cc "cluster_sync_restores") (cc "cluster_sync_rounds"));
    ("cluster.skipped_per_round", ratio (cc "cluster_sync_skipped") (cc "cluster_sync_rounds"));
    ("cluster.replicate_sends_per_op", per (cc "cluster_replicate_send") ps.completed);
  ]

let run ~lossy (opts : opts) =
  let p = params opts.scale in
  let setup_times = if opts.traced then 1 else 5 in
  let setup_s, inp = setup_repeated ~times:setup_times (fun () -> setup p ~seed:opts.seed) in
  let cached = Traceroute.Route_oracle.cached_destinations inp.oracle in
  let full ~labeled ~timed () = run_pass inp ~lossy ~sync:true ~labeled ~timed in
  let untraced, last = keeping (full ~labeled:true ~timed:false) in
  if not opts.traced then begin
    let w = run_window ~seconds:opts.seconds untraced in
    let ps = last () in
    let m = Option.get ps.stack.metrics in
    let latency = Samples.quantiles ps.latencies [ 0.5; 0.99 ] in
    let n = Printf.sprintf "n=%d" (Samples.count ps.latencies) in
    let metrics =
      [
        ("setup_s", setup_s);
        ("ops_per_s", float_of_int ps.completed /. w.median_pass_s);
        ("latency_p50_ms", List.nth latency 0);
        ("latency_p99_ms", List.nth latency 1);
        ("alloc_words_per_op", w.gc.alloc_words /. float_of_int (ps.completed * w.passes));
        ( "state_bytes_per_member",
          let c = ps.stack.cluster in
          let members =
            List.init (Nearby.Cluster.replica_count c) (fun i ->
                Nearby.Server.peer_count (Nearby.Cluster.server_of c i))
          in
          state_bytes_per_member ~oracle:inp.oracle ~members:(List.fold_left ( + ) 0 members) c );
        ("client_bytes_per_op", per (float_of_int (client_bytes m)) ps.completed);
        ( "wire_bytes_per_op",
          per (float_of_int (Simkit.Transport.bytes_sent ps.stack.transport)) ps.completed );
      ]
    in
    {
      attempted = p.joins;
      failed = ps.failed;
      checks = checks inp ps ~cached;
      metrics;
      notes =
        [
          ("setup_s", Printf.sprintf "median of %d set-ups" setup_times);
          ("ops_per_s", Printf.sprintf "median of %d passes of %d joins" w.passes p.joins);
          ("latency_p50_ms", n);
          ("latency_p99_ms", n);
        ];
    }
  end
  else begin
    (* Traced: tracing on, the labeled registry detached (observability
       cost) and the three ladder rungs, interleaved with the untraced
       pass. *)
    let traced, traced_last =
      keeping (fun () ->
          Prof.start ~keep_spans:(opts.trace_file <> None);
          let ps = full ~labeled:true ~timed:true () in
          Prof.stop ();
          ps)
    in
    let detached, detached_last = keeping (full ~labeled:false ~timed:false) in
    let neighbor_us = Samples.create () in
    let before = ref [] in
    let windows =
      run_windows ~seconds:opts.seconds ~warmed:(fun () -> before := Prof.snapshot ())
        [|
          untraced;
          traced;
          detached;
          (fun () -> rung_a inp ~neighbor_us);
          (fun () -> rung_b inp);
          (fun () -> rung_c inp);
        |]
    in
    let w = windows.(0) and tw = windows.(1) in
    let ps = last () in
    let rung i = windows.(i).median_pass_s in
    let a = rung 3 and b = rung 4 and c = rung 5 in
    (* The full path with its sync rounds taken out, to hold rung (c)
       against. *)
    let sync_incl_s = float_of_int (Prof.since !before Prof.cluster_sync).t_incl /. 1e9 in
    let sync_off = w.median_pass_s *. (1.0 -. (sync_incl_s /. tw.wall_s)) in
    let fp = fingerprint ps in
    let same = fp = fingerprint (traced_last ()) && fp = fingerprint (detached_last ()) in
    (* Read every counter before the output checks run their final sync. *)
    let metrics =
      Layers.common ~before:!before ~ops_per_pass:ps.completed ~untraced:w ~traced:tw
        ~obs:(Some windows.(2))
        ~server:(Nearby.Cluster.server_of ps.stack.cluster 0)
        ~neighbor_us:(Some neighbor_us)
      @ pass_layers ps
      @ [
          ("ladder.server_frac", a /. c);
          ("ladder.cluster_fanout_frac", (b -. a) /. c);
          ("ladder.rpc_transport_frac", (c -. b) /. c);
          ("ladder.sync_off_error", Float.abs ((c /. sync_off) -. 1.0));
        ]
    in
    {
      attempted = p.joins;
      failed = ps.failed;
      checks = checks inp ps ~cached @ [ ("traced and untraced passes agree", same) ];
      notes = [];
      metrics;
    }
  end
