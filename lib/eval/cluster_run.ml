(* One run of the replicated join service: the machinery the resilience,
   wire, health and fleet experiments share, so each of them states only
   what it adds (instruments, polls, the numbers it reads back). *)

type config = {
  routers : int;
  peers : int;
  k : int;
  replicas : int;
  arrival_window_ms : float;
  sync_period_ms : float;
  drain_ms : float;
  seed : int;
}

let horizon c =
  c.arrival_window_ms +. c.drain_ms
  +. Simkit.Rpc.worst_case_ms Simkit.Rpc.default_config
  +. (3.0 *. c.sync_period_ms) +. 1_000.0

let fault_window c = (0.25 *. c.arrival_window_ms, 0.6 *. c.arrival_window_ms)

let timeseries c ~window_ms =
  Simkit.Timeseries.create
    ~capacity:(max 64 (int_of_float (horizon c /. window_ms) + 8))
    ~window_ms ()

type t = {
  config : config;
  workload : Workload.t;
  engine : Simkit.Engine.t;
  transport : Simkit.Transport.t;
  replica_routers : Topology.Graph.node array;
  cluster : Nearby.Cluster.t;
  rpc : Simkit.Rpc.t;
  protocol : Nearby.Protocol.t;
  horizon : float;
  mutable completed : int;
  mutable failed : int;
}

let create ?(spans = Simkit.Span.noop) ?metrics ?recorder ?rpc_recorder ?timeseries ?backend
    ?(base_loss = 0.0) ?(fault = fun _ -> Simkit.Fault.none) config =
  if config.replicas < 1 then invalid_arg "Cluster_run: replicas must be >= 1";
  let w = Workload.build ~routers:config.routers ~peers:config.peers ~seed:config.seed () in
  let engine = Simkit.Engine.create () in
  Simkit.Span.set_clock spans (fun () -> Simkit.Engine.now engine);
  let transport =
    Simkit.Transport.create ~rng:(Prelude.Prng.split w.rng) ~loss_prob:base_loss ?metrics
      ?timeseries engine w.ctx.oracle
  in
  (* Replica hosts: medium-degree routers, like landmarks but an
     independent draw (management servers are infrastructure, not peers). *)
  let replica_routers =
    Nearby.Landmark.place (Workload.graph w) Medium_degree ~count:config.replicas
      ~rng:(Prelude.Prng.split w.rng)
  in
  let cluster =
    Nearby.Cluster.create ?recorder ?metrics ~spans ~transport ~client_router:w.map.core.(0)
      ~make_server:(fun () ->
        Nearby.Server.create ?backend ~spans w.ctx.oracle ~landmarks:w.landmarks)
      ~routers:replica_routers ()
  in
  let rpc =
    Simkit.Rpc.create ~rng:(Prelude.Prng.split w.rng) ?labeled:metrics ?recorder:rpc_recorder
      ~spans transport
  in
  let t =
    {
      config;
      workload = w;
      engine;
      transport;
      replica_routers;
      cluster;
      rpc;
      protocol = Nearby.Protocol.create_resilient ~rpc cluster;
      horizon = horizon config;
      completed = 0;
      failed = 0;
    }
  in
  Simkit.Fault.install ?recorder (fault t) ~engine
    ~hooks:
      {
        Simkit.Fault.crash_replica = Nearby.Cluster.crash cluster;
        recover_replica = Nearby.Cluster.recover cluster;
        set_loss = Simkit.Transport.set_loss_prob transport;
        partition = Simkit.Transport.set_partition_nodes transport;
        heal_partition = (fun () -> Simkit.Transport.clear_partition transport);
      };
  Nearby.Cluster.start_sync cluster ~period_ms:config.sync_period_ms ~until:t.horizon;
  t

let every t ~period_ms f =
  let rec at time =
    if time <= t.horizon then
      Simkit.Engine.schedule_at t.engine ~time (fun () ->
          f ();
          at (time +. period_ms))
  in
  at period_ms

let arrivals ?timeseries ?(admit = fun ~serve ~shed:_ -> serve ())
    ?(on_complete = fun ~peer:_ ~trace_id:_ ~latency_ms:_ _ -> ()) t =
  let w = t.workload in
  let observe name ~now v =
    Option.iter (fun ts -> Simkit.Timeseries.observe ts name ~now v) timeseries
  in
  let fail () =
    t.failed <- t.failed + 1;
    observe "join_failed" ~now:(Simkit.Engine.now t.engine) 1.0
  in
  for peer = 0 to t.config.peers - 1 do
    let at = Prelude.Prng.float w.rng t.config.arrival_window_ms in
    Simkit.Engine.schedule_at t.engine ~time:at (fun () ->
        let started = Simkit.Engine.now t.engine in
        observe "join_started" ~now:started 1.0;
        admit
          ~serve:(fun () ->
            let trace_id = ref 0 in
            Nearby.Protocol.join t.protocol ~peer ~attach_router:w.peer_routers.(peer)
              ~k:t.config.k
              ~on_trace:(fun ctx -> trace_id := ctx.Simkit.Span.trace_id)
              ~on_complete:(fun _info reply ->
                t.completed <- t.completed + 1;
                let now = Simkit.Engine.now t.engine in
                let latency_ms = now -. started in
                observe "join_ms" ~now latency_ms;
                observe "join_completed" ~now 1.0;
                on_complete ~peer ~trace_id:!trace_id ~latency_ms reply)
              ~on_failure:fail)
          ~shed:fail)
  done

let settle t =
  Simkit.Engine.run t.engine ~until:t.horizon;
  Nearby.Cluster.sync_round t.cluster;
  Nearby.Cluster.check_invariants t.cluster

let staleness t =
  let ages = Prelude.Sketch.create () in
  let oldest = ref 0.0 in
  let now = Simkit.Engine.now t.engine in
  for i = 0 to Nearby.Cluster.replica_count t.cluster - 1 do
    let tracker = Nearby.Staleness.create (Nearby.Cluster.server_of t.cluster i) in
    let report = Nearby.Staleness.observe tracker ~now in
    oldest := Float.max !oldest report.oldest_ms;
    Prelude.Sketch.merge_into ~into:ages (Nearby.Staleness.age_sketch tracker)
  done;
  (ages, !oldest)

(* --- Wire bytes by kind, read back from the labeled registry ------------ *)

type kind_row = { kind : string; bytes : int; msgs : int }

let counter_sum ?(where = fun _ -> true) metrics name =
  List.fold_left
    (fun acc (n, labels, _) ->
      if n = name && where labels then acc + Simkit.Metrics.counter metrics name ~labels
      else acc)
    0
    (Simkit.Metrics.series metrics)

let wire_kinds metrics =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (n, labels, _) ->
      if n = "wire_bytes_total" then begin
        let kind = Option.value (List.assoc_opt "kind" labels) ~default:"" in
        let bytes = Simkit.Metrics.counter metrics n ~labels in
        let msgs = Simkit.Metrics.counter metrics "wire_msgs_total" ~labels in
        let b0, m0 = Option.value (Hashtbl.find_opt tbl kind) ~default:(0, 0) in
        Hashtbl.replace tbl kind (b0 + bytes, m0 + msgs)
      end)
    (Simkit.Metrics.series metrics);
  Hashtbl.fold (fun kind (bytes, msgs) acc -> { kind; bytes; msgs } :: acc) tbl []
  |> List.sort (fun a b -> compare (b.bytes, a.kind) (a.bytes, b.kind))

let kind_bytes rows kind =
  match List.find_opt (fun r -> r.kind = kind) rows with Some r -> r.bytes | None -> 0
