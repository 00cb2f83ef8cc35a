type family = Magoni | Ba | Config_model | Er | Waxman | Transit_stub

let family_name = function
  | Magoni -> "magoni"
  | Ba -> "ba"
  | Config_model -> "config-2.2"
  | Er -> "er"
  | Waxman -> "waxman"
  | Transit_stub -> "transit-stub"

let all_families = [ Magoni; Ba; Config_model; Er; Waxman; Transit_stub ]

type config = {
  nodes : int;
  peers : int;
  landmark_count : int;
  k : int;
  families : family list;
  seeds : int list;
}

let default_config =
  { nodes = 2000; peers = 500; landmark_count = 8; k = 5; families = all_families; seeds = [ 1; 2; 3 ] }

let quick_config =
  { nodes = 600; peers = 150; landmark_count = 6; k = 5; families = [ Magoni; Er ]; seeds = [ 1 ] }

type row = {
  family : family;
  gini : float;
  ratio_proposed : float;
  ratio_random : float;
  hit_proposed : float;
}

let build_graph config ~seed = function
  | Magoni -> (Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params config.nodes) ~seed).graph
  | Ba -> Topology.Gen_ba.generate ~nodes:config.nodes ~edges_per_node:2 ~seed
  | Config_model ->
      let _, giant =
        Topology.Gen_config_model.generate_power_law ~n:config.nodes ~alpha:2.2 ~d_min:1 ~d_max:60
          ~seed
      in
      giant
  | Er ->
      Topology.Gen_er.generate_connected ~nodes:config.nodes ~edges:(5 * config.nodes / 2) ~seed
  | Waxman ->
      let g, _ = Topology.Gen_waxman.generate ~nodes:(min config.nodes 1200) ~alpha:0.3 ~beta:0.12 ~seed in
      g
  | Transit_stub ->
      (* Scale the stub parameters to approximate the requested size. *)
      let per_stub = 6 and stubs = 2 and per_transit = 4 in
      let transit_domains =
        max 2 (config.nodes / (per_transit * ((stubs * per_stub) + 1)))
      in
      Topology.Gen_transit_stub.generate
        {
          Topology.Gen_transit_stub.transit_domains;
          routers_per_transit = per_transit;
          stubs_per_transit_router = stubs;
          routers_per_stub = per_stub;
          intra_edge_prob = 0.35;
        }
        ~seed

let run_one config family ~seed =
      let graph = build_graph config ~seed family in
      let rng = Prelude.Prng.create (seed + 7) in
      (* Peers attach to the lowest-degree routers (degree-1 where the map
         has them, as the paper prescribes); landmarks medium-degree. *)
      let n_nodes = Topology.Graph.node_count graph in
      let by_degree = Array.init n_nodes (fun v -> v) in
      Array.sort
        (fun a b -> compare (Topology.Graph.degree graph a, a) (Topology.Graph.degree graph b, b))
        by_degree;
      let peers = min config.peers (n_nodes / 2) in
      let peer_routers = Array.sub by_degree 0 peers in
      Prelude.Prng.shuffle_in_place rng peer_routers;
      let landmarks =
        Nearby.Landmark.place graph Nearby.Landmark.Medium_degree ~count:config.landmark_count ~rng
      in
      let ctx = Nearby.Selector.make_context graph ~peer_routers in
      let proposed =
        Nearby.Selector.select ctx
          (Proposed { landmarks })
          ~k:config.k ~rng
      in
      let random = Nearby.Selector.select ctx Random_peers ~k:config.k ~rng in
      let outcome =
        Measure.score ctx ~k:config.k ~named_sets:[ ("p", proposed); ("r", random) ]
      in
      let rp, rr, hit =
        match outcome.scored with
        | [ p; r ] -> (p.ratio, r.ratio, p.hit_ratio)
        | _ -> assert false
      in
      {
        family;
        gini = Topology.Degree.gini graph;
        ratio_proposed = rp;
        ratio_random = rr;
        hit_proposed = hit;
      }

let run config =
  List.map
    (fun family ->
      let rows = List.map (fun seed -> run_one config family ~seed) config.seeds in
      let mean f = List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows) in
      {
        family;
        gini = mean (fun r -> r.gini);
        ratio_proposed = mean (fun r -> r.ratio_proposed);
        ratio_random = mean (fun r -> r.ratio_random);
        hit_proposed = mean (fun r -> r.hit_proposed);
      })
    config.families

let print rows =
  print_endline "topology sensitivity: proposed vs random across map families";
  print_endline "  (the mechanism's edge should track the degree heavy tail / core structure)";
  Prelude.Table.print
    ~header:[ "family"; "degree gini"; "D/Dcl proposed"; "D/Dcl random"; "hit"; "advantage" ]
    (List.map
       (fun r ->
         [
           family_name r.family;
           Prelude.Table.float_cell r.gini;
           Prelude.Table.float_cell r.ratio_proposed;
           Prelude.Table.float_cell r.ratio_random;
           Prelude.Table.float_cell r.hit_proposed;
           Prelude.Table.float_cell (r.ratio_random /. r.ratio_proposed);
         ])
       rows)
