type config = {
  routers : int;
  landmark_count : int;
  k : int;
  spec : Simkit.Churn.spec;
  refresh_period_ms : float;
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
        session = Simkit.Churn.Exponential { mean_ms = 120_000.0 };
        failure_fraction = 0.3;
        mobility_fraction = 0.0;
        horizon_ms = 600_000.0;
      };
    refresh_period_ms = 20_000.0;
    checkpoints = 6;
    seed = 1;
  }

let quick_config =
  {
    default_config with
    routers = 600;
    spec =
      {
        Simkit.Churn.arrival_rate_per_s = 1.0;
        session = Simkit.Churn.Exponential { mean_ms = 90_000.0 };
        failure_fraction = 0.3;
        mobility_fraction = 0.0;
        horizon_ms = 240_000.0;
      };
    checkpoints = 3;
  }

type checkpoint = {
  time_ms : float;
  live_peers : int;
  frozen_live_fraction : float;
  maintained_live_fraction : float;
  replacements : int;
  server_queries : int;
}

let run config =
  let map =
    Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params config.routers) ~seed:config.seed
  in
  let rng = Prelude.Prng.create (config.seed + 99) in
  let landmarks =
    Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:config.landmark_count ~rng
  in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let server = Nearby.Server.create oracle ~landmarks in
  let client = Nearby.Client.create oracle ~landmarks in
  let engine = Simkit.Engine.create () in
  let alive : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let is_alive p = Hashtbl.mem alive p in
  let maintainer =
    Nearby.Maintenance.create ~engine ~server ~is_alive
      { k = config.k; refresh_period_ms = config.refresh_period_ms }
  in
  let frozen : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let leaves = map.leaves in
  let sessions = Simkit.Churn.generate config.spec ~rng:(Prelude.Prng.split rng) in
  List.iteri
    (fun peer (s : Simkit.Churn.session) ->
      Simkit.Engine.schedule_at engine ~time:s.join_at (fun () ->
          let attach_router = leaves.(Prelude.Prng.int rng (Array.length leaves)) in
          ignore (Nearby.Server.join server ~client ~peer ~attach_router);
          Hashtbl.replace alive peer ();
          Hashtbl.replace frozen peer (List.map fst (Nearby.Server.neighbors server ~peer ~k:config.k));
          Nearby.Maintenance.track maintainer ~peer);
      Simkit.Engine.schedule_at engine ~time:(Float.max s.leave_at s.join_at) (fun () ->
          if Hashtbl.mem alive peer then begin
            Hashtbl.remove alive peer;
            Nearby.Maintenance.untrack maintainer ~peer;
            match s.departure with
            | Simkit.Churn.Leave | Simkit.Churn.Handover ->
                if Nearby.Server.mem server peer then Nearby.Server.leave server ~peer
            | Simkit.Churn.Crash ->
                (* Silent: the server only notices after a detection delay. *)
                Simkit.Engine.schedule engine ~delay:30_000.0 (fun () ->
                    if Nearby.Server.mem server peer then Nearby.Server.leave server ~peer)
          end))
    sessions;
  let results = ref [] in
  let snapshot time_ms =
    let live_peers = Hashtbl.length alive in
    let frozen_fraction =
      let acc = ref 0.0 and counted = ref 0 in
      Hashtbl.iter
        (fun peer () ->
          match Hashtbl.find_opt frozen peer with
          | Some [] | None -> ()
          | Some set ->
              let live = List.length (List.filter is_alive set) in
              acc := !acc +. (float_of_int live /. float_of_int config.k);
              incr counted)
        alive;
      if !counted = 0 then 1.0 else !acc /. float_of_int !counted
    in
    results :=
      {
        time_ms;
        live_peers;
        frozen_live_fraction = frozen_fraction;
        maintained_live_fraction = Nearby.Maintenance.live_fraction maintainer;
        replacements = Nearby.Maintenance.replacements maintainer;
        server_queries = Simkit.Trace.counter (Nearby.Server.trace server) "query";
      }
      :: !results
  in
  let step = config.spec.horizon_ms /. float_of_int config.checkpoints in
  for c = 1 to config.checkpoints do
    let time = step *. float_of_int c in
    Simkit.Engine.schedule_at engine ~time (fun () -> snapshot time)
  done;
  Simkit.Engine.run engine;
  List.rev !results

let print checkpoints =
  print_endline "maintenance: neighbor-set decay under churn, frozen vs refreshed";
  Prelude.Table.print
    ~header:[ "t (s)"; "live"; "frozen live frac"; "maintained live frac"; "replacements"; "queries" ]
    (List.map
       (fun c ->
         [
           Prelude.Table.float_cell ~decimals:0 (c.time_ms /. 1000.0);
           string_of_int c.live_peers;
           Prelude.Table.float_cell c.frozen_live_fraction;
           Prelude.Table.float_cell c.maintained_live_fraction;
           string_of_int c.replacements;
           string_of_int c.server_queries;
         ])
       checkpoints)
