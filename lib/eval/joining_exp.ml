type config = {
  routers : int;
  initial_peers : int;
  newcomers : int;
  k : int;
  vivaldi_rounds : int;
  round_period_ms : float;
  arrival_window_ms : float * float;
  session : Streaming.Session.params;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    initial_peers = 200;
    newcomers = 60;
    k = 4;
    vivaldi_rounds = 15;
    round_period_ms = 250.0;
    arrival_window_ms = (10_000.0, 30_000.0);
    session = { Streaming.Session.default_params with duration_ms = 60_000.0 };
    seed = 1;
  }

let quick_config =
  {
    default_config with
    routers = 800;
    initial_peers = 80;
    newcomers = 25;
    session = { Streaming.Session.default_params with duration_ms = 40_000.0 };
  }

type row = {
  method_name : string;
  mean_discovery_ms : float;
  mean_buffering_ms : float;
  mean_time_to_play_ms : float;
  started_fraction : float;
  mean_neighbor_hops : float;
}

type method_spec =
  | Proposed_discovery
  | Proposed_established
      (** Same reply, filtered to peers that were already streaming —
          avoids herding newcomers onto each other's empty buffers. *)
  | Random_discovery
  | Ideal_coords  (** Perfect proximity after the convergence delay. *)

let method_name = function
  | Proposed_discovery -> "proposed"
  | Proposed_established -> "proposed (established)"
  | Random_discovery -> "random (instant)"
  | Ideal_coords -> "ideal-coords (delayed)"

let run_method config (w : Workload.t) spec =
  let latency = w.ctx.latency in
  let engine = Simkit.Engine.create () in
  let session =
    Streaming.Session.create ~params:config.session ?latency ~engine ~graph:w.ctx.graph
      ~source_router:w.landmarks.(0) ~seed:(config.seed + 7) ()
  in
  let server = Nearby.Server.create w.ctx.oracle ~landmarks:w.landmarks in
  let client = Nearby.Client.create ?latency w.ctx.oracle ~landmarks:w.landmarks in
  let transport = Simkit.Transport.create ?latency engine w.ctx.oracle in
  let protocol =
    Nearby.Protocol.create_resilient ~client ~rpc:(Simkit.Rpc.create transport)
      (Nearby.Cluster.single ~transport ~router:w.landmarks.(0) server)
  in
  let rng = Prelude.Prng.create (config.seed + 11) in
  let n0 = config.initial_peers in
  (* Bootstrap swarm: proposed+1rand mesh (connected and local), and the
     server already knows everyone. *)
  let boot_ctx : Nearby.Selector.context =
    {
      graph = w.ctx.graph;
      oracle = w.ctx.oracle;
      latency;
      peer_routers = Array.sub w.peer_routers 0 n0;
    }
  in
  let boot_sets =
    Nearby.Selector.select boot_ctx
      (Hybrid
         {
           primary = Proposed { landmarks = w.landmarks };
           random_links = 1;
         })
      ~k:config.k ~rng
  in
  for i = 0 to n0 - 1 do
    let id = Streaming.Session.add_peer session ~router:w.peer_routers.(i) ~neighbors:[] in
    assert (id = i);
    ignore (Nearby.Server.join server ~client ~peer:i ~attach_router:w.peer_routers.(i))
  done;
  (* Install the bootstrap mesh (ids = indices). *)
  Array.iteri
    (fun i set -> Array.iter (fun q -> Streaming.Session.link session i q) set)
    boot_sets;
  let discovery = Prelude.Stats.create () in
  let hop_stats = Prelude.Stats.create () in
  let attach_times : (int, float) Hashtbl.t = Hashtbl.create 64 in
  (* Workload peer -> session id (identity for the bootstrap population;
     newcomers attach in completion order, which differs from arrival
     order), and session id -> router for proximity scoring. *)
  let sid_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let router_of_sid : (int, Topology.Graph.node) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to n0 - 1 do
    Hashtbl.replace sid_of i i;
    Hashtbl.replace router_of_sid i w.peer_routers.(i)
  done;
  let lo, hi = config.arrival_window_ms in
  let arrivals =
    Array.init config.newcomers (fun j ->
        (n0 + j, lo +. (Prelude.Prng.float rng (hi -. lo))))
  in
  Array.iter
    (fun (peer, arrival) ->
      Simkit.Engine.schedule_at engine ~time:arrival (fun () ->
          let router = w.peer_routers.(peer) in
          (* [neighbors] are SESSION ids. *)
          let attach_with neighbors =
            let now = Simkit.Engine.now engine in
            Hashtbl.replace attach_times peer now;
            Prelude.Stats.add discovery (now -. arrival);
            List.iter
              (fun q ->
                match Hashtbl.find_opt router_of_sid q with
                | Some r ->
                    let hops = Topology.Bfs.distance w.ctx.graph router r in
                    if hops <> max_int then Prelude.Stats.add hop_stats (float_of_int hops)
                | None -> ())
              neighbors;
            let sid = Streaming.Session.add_peer session ~router ~neighbors in
            Hashtbl.replace sid_of peer sid;
            Hashtbl.replace router_of_sid sid router
          in
          (* Translate server-side peer ids into session ids, dropping
             peers that have not attached yet. *)
          let to_sids server_ids = List.filter_map (Hashtbl.find_opt sid_of) server_ids in
          match spec with
          | Proposed_discovery ->
              Nearby.Protocol.join protocol ~peer ~attach_router:router ~k:config.k
                ~on_complete:(fun _info reply ->
                  let neighbors = to_sids (List.map fst reply) in
                  (* One random link for swarm connectivity, as deployments do. *)
                  let extra = Prelude.Prng.int rng (Streaming.Session.peer_count session) in
                  attach_with (extra :: neighbors))
          | Proposed_established ->
              (* Ask for extra candidates, keep the closest established
                 ones: the herd-avoidance policy a server that tracks
                 registration age would implement. *)
              Nearby.Protocol.join protocol ~peer ~attach_router:router ~k:(3 * config.k)
                ~on_complete:(fun _info reply ->
                  let established =
                    reply |> List.map fst
                    |> List.filter (fun q -> q < n0)
                    |> List.filteri (fun i _ -> i < config.k)
                  in
                  let neighbors = to_sids established in
                  let extra = Prelude.Prng.int rng (Streaming.Session.peer_count session) in
                  attach_with (extra :: neighbors))
          | Random_discovery ->
              let current = Streaming.Session.peer_count session in
              let picks =
                Prelude.Prng.sample_without_replacement rng ~k:(min (config.k + 1) current)
                  ~n:current
              in
              ignore (Nearby.Server.join server ~client ~peer ~attach_router:router);
              attach_with (Array.to_list picks)
          | Ideal_coords ->
              let delay =
                Nearby.Protocol.vivaldi_setup_delay ~rounds:config.vivaldi_rounds
                  ~round_period_ms:config.round_period_ms
              in
              Simkit.Engine.schedule engine ~delay (fun () ->
                  ignore (Nearby.Server.join server ~client ~peer ~attach_router:router);
                  (* Perfect proximity: the true closest current peers. *)
                  let dist = Topology.Bfs.distances w.ctx.graph router in
                  let current = Streaming.Session.peer_count session in
                  let ids = Array.init current (fun q -> q) in
                  let router_of q = Option.value ~default:router (Hashtbl.find_opt router_of_sid q) in
                  Array.sort
                    (fun a b -> compare (dist.(router_of a), a) (dist.(router_of b), b))
                    ids;
                  let neighbors = Array.to_list (Array.sub ids 0 (min config.k current)) in
                  let extra = Prelude.Prng.int rng current in
                  attach_with (extra :: neighbors))))
    arrivals;
  Streaming.Session.advance session ~until:config.session.duration_ms;
  let report = Streaming.Session.report session in
  (* Newcomer metrics only. *)
  let buffering = Prelude.Stats.create () in
  let time_to_play = Prelude.Stats.create () in
  let started = ref 0 in
  Array.iter
    (fun (peer, arrival) ->
      match Hashtbl.find_opt sid_of peer with
      | None -> ()
      | Some sid ->
      let pr = report.peers.(sid) in
      if not (Float.is_nan pr.startup_delay_ms) then begin
        incr started;
        Prelude.Stats.add buffering pr.startup_delay_ms;
        match Hashtbl.find_opt attach_times peer with
        | Some at -> Prelude.Stats.add time_to_play (at -. arrival +. pr.startup_delay_ms)
        | None -> ()
      end)
    arrivals;
  {
    method_name = method_name spec;
    mean_discovery_ms = Prelude.Stats.mean discovery;
    mean_buffering_ms = Prelude.Stats.mean buffering;
    mean_time_to_play_ms = Prelude.Stats.mean time_to_play;
    started_fraction = float_of_int !started /. float_of_int config.newcomers;
    mean_neighbor_hops = Prelude.Stats.mean hop_stats;
  }

let run config =
  let w =
    Workload.build ~routers:config.routers ~landmark_count:8
      ~latency:(Topology.Latency.Core_weighted { core_ms = 2.0; edge_ms = 15.0; threshold = 8 })
      ~peers:(config.initial_peers + config.newcomers) ~seed:config.seed ()
  in
  List.map (run_method config w)
    [ Proposed_discovery; Proposed_established; Random_discovery; Ideal_coords ]

let print rows =
  print_endline "joining: newcomer time-to-playback (discovery + buffering), mid-stream";
  Prelude.Table.print
    ~header:
      [ "method"; "discovery ms"; "buffering ms"; "time-to-play ms"; "started"; "neighbor hops" ]
    (List.map
       (fun r ->
         [
           r.method_name;
           Prelude.Table.float_cell ~decimals:0 r.mean_discovery_ms;
           Prelude.Table.float_cell ~decimals:0 r.mean_buffering_ms;
           Prelude.Table.float_cell ~decimals:0 r.mean_time_to_play_ms;
           Prelude.Table.float_cell ~decimals:2 r.started_fraction;
           Prelude.Table.float_cell ~decimals:2 r.mean_neighbor_hops;
         ])
       rows)
