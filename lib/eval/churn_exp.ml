type detection =
  | Fixed_delay of float
  | Heartbeat of Simkit.Failure_detector.config

type config = {
  routers : int;
  landmark_count : int;
  k : int;
  spec : Simkit.Churn.spec;
  detection : detection;
  checkpoints : int;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    landmark_count = 8;
    k = 5;
    spec =
      {
        Simkit.Churn.arrival_rate_per_s = 2.0;
        session = Simkit.Churn.Pareto { alpha = 1.5; min_ms = 60_000.0 };
        failure_fraction = 0.2;
        mobility_fraction = 0.1;
        horizon_ms = 600_000.0;
      };
    detection =
      Heartbeat
        {
          Simkit.Failure_detector.heartbeat_period_ms = 5_000.0;
          timeout_ms = 27_500.0;
          heartbeat_bytes = 32;
        };
    checkpoints = 6;
    seed = 1;
  }

let quick_config =
  {
    default_config with
    routers = 800;
    spec =
      {
        Simkit.Churn.arrival_rate_per_s = 1.0;
        session = Simkit.Churn.Exponential { mean_ms = 120_000.0 };
        failure_fraction = 0.2;
        mobility_fraction = 0.1;
        horizon_ms = 300_000.0;
      };
    detection = Fixed_delay 30_000.0;
    checkpoints = 3;
  }

type checkpoint = {
  time_ms : float;
  live_peers : int;
  ratio : float;
  stale_fraction : float;
  handovers_so_far : int;
  crashes_so_far : int;
  heartbeat_messages : int;
}

type peer_state = { mutable router : Topology.Graph.node; mutable alive : bool }

let run config =
  let map =
    Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params config.routers) ~seed:config.seed
  in
  let graph = map.graph in
  let rng = Prelude.Prng.create (config.seed * 31 + 17) in
  let landmarks = Nearby.Landmark.place graph Nearby.Landmark.Medium_degree ~count:config.landmark_count ~rng in
  let oracle = Traceroute.Route_oracle.create graph in
  let server = Nearby.Server.create oracle ~landmarks in
  let client = Nearby.Client.create oracle ~landmarks in
  let leaves = map.leaves in
  let random_leaf () = leaves.(Prelude.Prng.int rng (Array.length leaves)) in
  let sessions = Simkit.Churn.generate config.spec ~rng:(Prelude.Prng.split rng) in
  let engine = Simkit.Engine.create () in
  (* Detector plumbing (heartbeat mode): its own transport so heartbeat
     traffic is countable separately; monitor co-located with landmark 0. *)
  let detector_transport = Simkit.Transport.create engine oracle in
  let alive_flags : (int, bool ref) Hashtbl.t = Hashtbl.create 1024 in
  let detector =
    match config.detection with
    | Fixed_delay _ -> None
    | Heartbeat fd_config ->
        Some
          (Simkit.Failure_detector.create fd_config ~transport:detector_transport
             ~monitor_router:landmarks.(0)
             ~on_failure:(fun peer ->
               if Nearby.Server.mem server peer then Nearby.Server.leave server ~peer))
  in
  let states : (int, peer_state) Hashtbl.t = Hashtbl.create 1024 in
  let join_rng = Prelude.Prng.split rng in
  let crashes = ref 0 and handovers = ref 0 in
  List.iteri
    (fun peer (s : Simkit.Churn.session) ->
      Simkit.Engine.schedule_at engine ~time:s.join_at (fun () ->
          let router = random_leaf () in
          Hashtbl.replace states peer { router; alive = true };
          ignore (Nearby.Server.join ~rng:join_rng server ~client ~peer ~attach_router:router);
          match detector with
          | None -> ()
          | Some d ->
              let flag = ref true in
              Hashtbl.replace alive_flags peer flag;
              Simkit.Failure_detector.watch d ~peer ~router ~alive:(fun () -> !flag));
      let finish_at = Float.max s.leave_at s.join_at in
      Simkit.Engine.schedule_at engine ~time:finish_at (fun () ->
          match Hashtbl.find_opt states peer with
          | None -> ()
          | Some st -> (
              let stop_watch ~graceful =
                (match Hashtbl.find_opt alive_flags peer with
                | Some flag -> flag := false
                | None -> ());
                match detector with
                | Some d when graceful -> Simkit.Failure_detector.unwatch d ~peer
                | Some _ | None -> ()
              in
              match s.departure with
              | Simkit.Churn.Leave ->
                  st.alive <- false;
                  stop_watch ~graceful:true;
                  Nearby.Server.leave server ~peer
              | Simkit.Churn.Crash -> (
                  (* Dead immediately, deregistered only once detected. *)
                  st.alive <- false;
                  incr crashes;
                  stop_watch ~graceful:false;
                  match config.detection with
                  | Fixed_delay delay ->
                      Simkit.Engine.schedule engine ~delay (fun () ->
                          if Nearby.Server.mem server peer then Nearby.Server.leave server ~peer)
                  | Heartbeat _ -> (* the detector will fire *) ())
              | Simkit.Churn.Handover ->
                  incr handovers;
                  st.router <- random_leaf ();
                  ignore (Nearby.Server.handover ~rng:join_rng server ~client ~peer ~attach_router:st.router);
                  (* The heartbeat stream moves with the peer. *)
                  (match detector with
                  | None -> ()
                  | Some d ->
                      Simkit.Failure_detector.unwatch d ~peer;
                      (match Hashtbl.find_opt alive_flags peer with
                      | Some flag -> flag := false
                      | None -> ());
                      let flag = ref true in
                      Hashtbl.replace alive_flags peer flag;
                      Simkit.Failure_detector.watch d ~peer ~router:st.router ~alive:(fun () -> !flag)))))
    sessions;
  let results = ref [] in
  let snapshot time_ms =
    let live =
      Hashtbl.fold (fun peer st acc -> if st.alive then (peer, st.router) :: acc else acc) states []
      |> List.sort compare
    in
    let live_count = List.length live in
    if live_count < 2 then
      results :=
        {
          time_ms;
          live_peers = live_count;
          ratio = nan;
          stale_fraction = 0.0;
          handovers_so_far = !handovers;
          crashes_so_far = !crashes;
          heartbeat_messages = Simkit.Transport.messages_sent detector_transport;
        }
        :: !results
    else begin
      (* Dense re-indexing of the live population for Measure.score. *)
      let ids = Array.of_list (List.map fst live) in
      let routers = Array.of_list (List.map snd live) in
      let index_of = Hashtbl.create live_count in
      Array.iteri (fun i id -> Hashtbl.add index_of id i) ids;
      let stale = ref 0 and returned = ref 0 in
      let sets =
        Array.map
          (fun id ->
            let reply = Nearby.Server.neighbors server ~peer:id ~k:config.k in
            let live_neighbors =
              List.filter_map
                (fun (p, _) ->
                  incr returned;
                  match Hashtbl.find_opt index_of p with
                  | Some i -> Some i
                  | None ->
                      incr stale;
                      None)
                reply
            in
            Array.of_list live_neighbors)
          ids
      in
      let ctx = Nearby.Selector.make_context graph ~peer_routers:routers in
      let outcome = Measure.score ctx ~k:config.k ~named_sets:[ ("live", sets) ] in
      let ratio = match outcome.scored with [ s ] -> s.ratio | _ -> assert false in
      results :=
        {
          time_ms;
          live_peers = live_count;
          ratio;
          stale_fraction =
            (if !returned = 0 then 0.0 else float_of_int !stale /. float_of_int !returned);
          handovers_so_far = !handovers;
          crashes_so_far = !crashes;
          heartbeat_messages = Simkit.Transport.messages_sent detector_transport;
        }
        :: !results
    end
  in
  let step = config.spec.horizon_ms /. float_of_int config.checkpoints in
  for c = 1 to config.checkpoints do
    let time = step *. float_of_int c in
    Simkit.Engine.schedule_at engine ~time (fun () -> snapshot time)
  done;
  (* Bounded run: heartbeat loops of still-alive peers reschedule forever,
     so an unbounded drain would never terminate in Heartbeat mode. *)
  Simkit.Engine.run ~until:config.spec.horizon_ms engine;
  List.rev !results

let print checkpoints =
  print_endline "E3: discovery quality under churn, crashes and handover";
  Prelude.Table.print
    ~header:[ "t (s)"; "live"; "D/Dclosest"; "stale frac"; "handovers"; "crashes"; "hb msgs" ]
    (List.map
       (fun c ->
         [
           Prelude.Table.float_cell ~decimals:0 (c.time_ms /. 1000.0);
           string_of_int c.live_peers;
           (if Float.is_nan c.ratio then "-" else Prelude.Table.float_cell c.ratio);
           Prelude.Table.float_cell c.stale_fraction;
           string_of_int c.handovers_so_far;
           string_of_int c.crashes_so_far;
           string_of_int c.heartbeat_messages;
         ])
       checkpoints)
