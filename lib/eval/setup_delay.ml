type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  vivaldi_rounds : int list;
  round_period_ms : float;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 400;
    landmark_count = 8;
    k = 5;
    vivaldi_rounds = [ 1; 2; 5; 10; 20; 50 ];
    round_period_ms = 250.0;
    seed = 1;
  }

let quick_config =
  { default_config with routers = 800; peers = 150; vivaldi_rounds = [ 1; 5; 20 ] }

type row = { method_name : string; setup_ms : float; ratio : float; hit_ratio : float }
type result = { rows : row list; rpc_timeouts : int }

(* The proposed setup time: every peer joins at once through the one join
   path (a lone server at the first landmark, a loss-free transport), and
   each join is timed from its start to its [on_complete]. *)
let proposed_setup (w : Workload.t) ~k =
  let engine = Simkit.Engine.create () in
  let transport = Simkit.Transport.create ?latency:w.ctx.latency engine w.ctx.oracle in
  let rpc = Simkit.Rpc.create transport in
  let server = Nearby.Server.create w.ctx.oracle ~landmarks:w.landmarks in
  let client = Nearby.Client.create ?latency:w.ctx.latency w.ctx.oracle ~landmarks:w.landmarks in
  let protocol =
    Nearby.Protocol.create_resilient ~client ~rpc
      (Nearby.Cluster.single ~transport ~router:w.landmarks.(0) server)
  in
  let start = Simkit.Engine.now engine in
  let took = Array.make (Array.length w.peer_routers) nan in
  Array.iteri
    (fun peer attach_router ->
      Nearby.Protocol.join protocol ~peer ~attach_router ~k ~on_complete:(fun _ _ ->
          took.(peer) <- Simkit.Engine.now engine -. start))
    w.peer_routers;
  Simkit.Engine.run engine;
  let delay = Prelude.Stats.create () in
  Array.iter (Prelude.Stats.add delay) took;
  (delay, Simkit.Trace.counter (Simkit.Rpc.trace rpc) "rpc_timeouts")

let run config =
  let w =
    Workload.build ~routers:config.routers ~landmark_count:config.landmark_count
      ~latency:(Topology.Latency.Core_weighted { core_ms = 2.0; edge_ms = 15.0; threshold = 8 })
      ~peers:config.peers ~seed:config.seed ()
  in
  let rng = w.rng in
  let k = config.k in
  (* Proposed: quality from the server, time from real joins. *)
  let proposed_sets =
    Nearby.Selector.select w.ctx
      (Proposed { landmarks = w.landmarks })
      ~k ~rng
  in
  let proposed_delay, rpc_timeouts = proposed_setup w ~k in
  (* GNP: landmark pings in parallel; the host-side minimization is local. *)
  let gnp_sets =
    Nearby.Selector.select w.ctx (Gnp_landmarks { landmarks = w.landmarks; dims = 3 }) ~k ~rng
  in
  let gnp_delay = Prelude.Stats.create () in
  Array.iter
    (fun router ->
      let worst =
        Array.fold_left
          (fun acc lmk ->
            Float.max acc (Traceroute.Probe.ping ?latency:w.ctx.latency w.ctx.oracle ~src:router ~dst:lmk))
          0.0 w.landmarks
      in
      Prelude.Stats.add gnp_delay worst)
    w.peer_routers;
  (* Meridian: one ring-walk search per newcomer; ring maintenance is
     steady-state warm-up, not charged to the join. *)
  let meridian_overlay =
    Coord.Meridian.build ?latency:w.ctx.latency Coord.Meridian.default_params w.ctx.oracle
      ~peer_routers:w.peer_routers ~rng:(Prelude.Prng.split rng)
  in
  let meridian_delay = Prelude.Stats.create () in
  let n_peers = Array.length w.peer_routers in
  let meridian_sets =
    Array.init n_peers (fun i ->
        let entry =
          let e = Prelude.Prng.int rng (n_peers - 1) in
          if e >= i then e + 1 else e
        in
        let search =
          Coord.Meridian.closest_search ~exclude:(fun p -> p = i) meridian_overlay
            ~target_router:w.peer_routers.(i) ~entry
        in
        Prelude.Stats.add meridian_delay search.elapsed_ms;
        Coord.Meridian.k_nearest ~exclude:(fun p -> p = i) meridian_overlay
          ~target_router:w.peer_routers.(i) ~entry ~k
        |> Array.of_list)
  in
  (* Vivaldi at increasing round counts. *)
  let vivaldi_rows =
    List.map
      (fun rounds ->
        let sets =
          Nearby.Selector.select w.ctx
            (Vivaldi_rounds { rounds; params = Coord.Vivaldi.default_params })
            ~k ~rng
        in
        (rounds, sets))
      config.vivaldi_rounds
  in
  let named =
    ("proposed", proposed_sets) :: ("gnp", gnp_sets) :: ("meridian", meridian_sets)
    :: List.map (fun (r, sets) -> (Printf.sprintf "vivaldi-%dr" r, sets)) vivaldi_rows
  in
  let outcome = Measure.score w.ctx ~k ~named_sets:named in
  let setup_of name =
    if name = "proposed" then Prelude.Stats.mean proposed_delay
    else if name = "gnp" then Prelude.Stats.mean gnp_delay
    else if name = "meridian" then Prelude.Stats.mean meridian_delay
    else
      Scanf.sscanf name "vivaldi-%dr" (fun r ->
          Nearby.Protocol.vivaldi_setup_delay ~rounds:r ~round_period_ms:config.round_period_ms)
  in
  let rows =
    List.map
      (fun (s : Measure.scored) ->
        { method_name = s.name; setup_ms = setup_of s.name; ratio = s.ratio; hit_ratio = s.hit_ratio })
      outcome.scored
  in
  { rows; rpc_timeouts }

let row_json r =
  let num = Simkit.Json_str.number in
  Simkit.Json_str.obj
    [
      ("method", Simkit.Json_str.quote r.method_name);
      ("setup_ms", num r.setup_ms);
      ("d_over_dclosest", num r.ratio);
      ("hit_ratio", num r.hit_ratio);
    ]

(* The paper's claim, gated: the proposed scheme finds the best neighbors
   of every method, sooner than Meridian's search.  The run is loss-free,
   so an RPC timeout can only mean a server round trip crossed the RPC
   deadline and inflated the proposed setup time. *)
let gates result =
  let find name = List.find (fun r -> r.method_name = name) result.rows in
  let proposed = find "proposed" and meridian = find "meridian" in
  Regression.
    [
      gate "setup/proposed/d_over_dclosest" proposed.ratio Lower_better 0.05;
      gate "setup/proposed/setup_ms" proposed.setup_ms Lower_better 0.05;
      flag "setup/proposed_best_quality"
        (List.for_all (fun r -> r == proposed || proposed.ratio < r.ratio) result.rows);
      flag "setup/proposed_faster_than_meridian" (proposed.setup_ms < meridian.setup_ms);
      exact "setup/rpc_timeouts" (float_of_int result.rpc_timeouts);
    ]

let print { rows; _ } =
  print_endline "E5: setup delay vs neighbor quality (latency-weighted map)";
  Prelude.Table.print
    ~header:[ "method"; "setup (ms)"; "D/Dclosest"; "hit-ratio" ]
    (List.map
       (fun r ->
         [
           r.method_name;
           Prelude.Table.float_cell ~decimals:0 r.setup_ms;
           Prelude.Table.float_cell r.ratio;
           Prelude.Table.float_cell r.hit_ratio;
         ])
       rows);
  print_newline ();
  print_string
    (Prelude.Ascii_plot.render
       [
         {
           Prelude.Ascii_plot.label = "quality ratio vs setup ms (all methods)";
           points = List.map (fun r -> (r.setup_ms, r.ratio)) rows;
         };
       ])
