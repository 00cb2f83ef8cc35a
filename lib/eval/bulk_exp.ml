type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  session : Streaming.Bulk.params;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 300;
    landmark_count = 8;
    k = 5;
    session = Streaming.Bulk.default_params;
    seed = 1;
  }

let quick_config =
  {
    routers = 800;
    peers = 100;
    landmark_count = 6;
    k = 4;
    session = { Streaming.Bulk.default_params with chunks = 48; max_time_ms = 40_000.0 };
    seed = 1;
  }

type row = {
  selector : string;
  completed_fraction : float;
  mean_completion_s : float;
  p95_completion_s : float;
  megabytes : float;
  link_megabytes : float;
}

let run config =
  let w =
    Workload.build ~routers:config.routers ~landmark_count:config.landmark_count
      ~latency:(Topology.Latency.Core_weighted { core_ms = 2.0; edge_ms = 15.0; threshold = 8 })
      ~peers:config.peers ~seed:config.seed ()
  in
  let rng = w.rng in
  let seed_router = w.landmarks.(0) in
  let proposed =
    Nearby.Selector.Proposed { landmarks = w.landmarks }
  in
  let strategies =
    [
      ("proposed+1rand", Nearby.Selector.Hybrid { primary = proposed; random_links = 1 });
      ("closest+1rand", Nearby.Selector.Hybrid { primary = Oracle_closest; random_links = 1 });
      ("random", Nearby.Selector.Random_peers);
    ]
  in
  List.map
    (fun (name, strategy) ->
      let sets = Nearby.Selector.select w.ctx strategy ~k:config.k ~rng:(Prelude.Prng.copy rng) in
      let report =
        Streaming.Bulk.run ~params:config.session ?latency:w.ctx.latency ~graph:w.ctx.graph
          ~seed_router ~peer_routers:w.peer_routers ~neighbor_sets:sets ~seed:(config.seed + 41) ()
      in
      {
        selector = name;
        completed_fraction = report.completed_fraction;
        mean_completion_s = report.mean_completion_ms /. 1000.0;
        p95_completion_s = report.p95_completion_ms /. 1000.0;
        megabytes = float_of_int report.bytes /. 1e6;
        link_megabytes = float_of_int report.link_bytes /. 1e6;
      })
    strategies

let print rows =
  print_endline "bulk: file-swarm distribution under different neighbor selectors";
  Prelude.Table.print
    ~header:[ "selector"; "completed"; "mean (s)"; "p95 (s)"; "MB sent"; "MB x hop" ]
    (List.map
       (fun r ->
         [
           r.selector;
           Prelude.Table.float_cell ~decimals:2 r.completed_fraction;
           Prelude.Table.float_cell ~decimals:1 r.mean_completion_s;
           Prelude.Table.float_cell ~decimals:1 r.p95_completion_s;
           Prelude.Table.float_cell ~decimals:1 r.megabytes;
           Prelude.Table.float_cell ~decimals:1 r.link_megabytes;
         ])
       rows)
