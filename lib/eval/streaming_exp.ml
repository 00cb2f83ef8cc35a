type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  session : Streaming.Session.params;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 300;
    landmark_count = 8;
    k = 5;
    session = Streaming.Session.default_params;
    seed = 1;
  }

let quick_config =
  {
    routers = 800;
    peers = 120;
    landmark_count = 6;
    k = 4;
    session = { Streaming.Session.default_params with duration_ms = 20_000.0 };
    seed = 1;
  }

type row = {
  selector : string;
  continuity : float;
  mean_startup_ms : float;
  started_fraction : float;
  mean_lag_chunks : float;
  mean_chunk_latency_ms : float;
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
  (* The source sits next to the first landmark's router — a well-connected
     injection point, as a CDN-fed head-end would be. *)
  let source_router = w.landmarks.(0) in
  let proposed =
    Nearby.Selector.Proposed { landmarks = w.landmarks }
  in
  let strategies =
    [
      ("proposed", proposed);
      ("proposed+1rand", Nearby.Selector.Hybrid { primary = proposed; random_links = 1 });
      ("proposed+2rand", Nearby.Selector.Hybrid { primary = proposed; random_links = 2 });
      ("closest+2rand", Nearby.Selector.Hybrid { primary = Oracle_closest; random_links = 2 });
      ("random", Nearby.Selector.Random_peers);
    ]
  in
  List.map
    (fun (name, strategy) ->
      let sets = Nearby.Selector.select w.ctx strategy ~k:config.k ~rng:(Prelude.Prng.copy rng) in
      let report =
        Streaming.Session.run ~params:config.session ?latency:w.ctx.latency ~graph:w.ctx.graph
          ~source_router ~peer_routers:w.peer_routers ~neighbor_sets:sets ~seed:(config.seed + 99)
          ()
      in
      {
        selector = name;
        continuity = report.continuity;
        mean_startup_ms = report.mean_startup_ms;
        started_fraction = report.started_fraction;
        mean_lag_chunks = report.mean_lag_chunks;
        mean_chunk_latency_ms = report.mean_chunk_latency_ms;
        megabytes = float_of_int report.bytes /. 1e6;
        link_megabytes = float_of_int report.link_bytes /. 1e6;
      })
    strategies

let print rows =
  print_endline "streaming: mesh live streaming under different neighbor selectors";
  Prelude.Table.print
    ~header:
      [
        "selector";
        "continuity";
        "startup ms";
        "started";
        "lag (chunks)";
        "chunk latency ms";
        "MB sent";
        "MB x hop";
      ]
    (List.map
       (fun r ->
         [
           r.selector;
           Prelude.Table.float_cell r.continuity;
           Prelude.Table.float_cell ~decimals:0 r.mean_startup_ms;
           Prelude.Table.float_cell ~decimals:2 r.started_fraction;
           Prelude.Table.float_cell ~decimals:2 r.mean_lag_chunks;
           Prelude.Table.float_cell ~decimals:1 r.mean_chunk_latency_ms;
           Prelude.Table.float_cell ~decimals:1 r.megabytes;
           Prelude.Table.float_cell ~decimals:1 r.link_megabytes;
         ])
       rows)
