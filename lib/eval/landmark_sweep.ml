type config = {
  routers : int;
  peers : int;
  k : int;
  counts : int list;
  policies : Nearby.Landmark.policy list;
  seeds : int list;
}

let default_config =
  {
    routers = 2000;
    peers = 800;
    k = 5;
    counts = [ 1; 2; 4; 8; 16; 32 ];
    policies = Nearby.Landmark.all_policies;
    seeds = [ 1; 2 ];
  }

let quick_config =
  {
    routers = 800;
    peers = 200;
    k = 5;
    counts = [ 1; 4; 16 ];
    policies = [ Nearby.Landmark.Medium_degree; Nearby.Landmark.Uniform_random ];
    seeds = [ 1 ];
  }

type row = { policy : Nearby.Landmark.policy; count : int; ratio : float; hit_ratio : float }

let score_joins w ~k ~client =
  let n = Array.length w.Workload.peer_routers in
  let server = Nearby.Server.create w.ctx.oracle ~landmarks:w.landmarks in
  let join_rng = Prelude.Prng.split w.rng in
  for peer = 0 to n - 1 do
    ignore (Nearby.Server.join ~rng:join_rng server ~client ~peer ~attach_router:w.peer_routers.(peer))
  done;
  let sets =
    Array.init n (fun peer -> Nearby.Server.neighbors server ~peer ~k |> List.map fst |> Array.of_list)
  in
  let outcome = Measure.score w.ctx ~k ~named_sets:[ ("server", sets) ] in
  match outcome.scored with [ s ] -> (s.ratio, s.hit_ratio) | _ -> assert false

let run config =
  List.concat_map
    (fun policy ->
      List.map
        (fun count ->
          let ratio = Prelude.Stats.create () and hit = Prelude.Stats.create () in
          List.iter
            (fun seed ->
              let w =
                Workload.build ~routers:config.routers ~landmark_count:count
                  ~landmark_policy:policy ~peers:config.peers ~seed ()
              in
              let client = Nearby.Client.create w.ctx.oracle ~landmarks:w.landmarks in
              let r, h = score_joins w ~k:config.k ~client in
              Prelude.Stats.add ratio r;
              Prelude.Stats.add hit h)
            config.seeds;
          { policy; count; ratio = Prelude.Stats.mean ratio; hit_ratio = Prelude.Stats.mean hit })
        config.counts)
    config.policies

let print rows =
  print_endline "E1: landmark count x placement policy (D/Dclosest; lower is better)";
  Prelude.Table.print
    ~header:[ "policy"; "landmarks"; "D/Dclosest"; "hit-ratio" ]
    (List.map
       (fun r ->
         [
           Nearby.Landmark.policy_name r.policy;
           string_of_int r.count;
           Prelude.Table.float_cell r.ratio;
           Prelude.Table.float_cell r.hit_ratio;
         ])
       rows)

type ablation_row = { count : int; ratio_closest : float; ratio_random_lmk : float }

let run_round1_ablation config =
  List.map
    (fun count ->
      let closest = Prelude.Stats.create () and random = Prelude.Stats.create () in
      List.iter
        (fun seed ->
          let measure choice acc =
            let w =
              Workload.build ~routers:config.routers ~landmark_count:count
                ~peers:config.peers ~seed ()
            in
            let client = Nearby.Client.create ~choice w.ctx.oracle ~landmarks:w.landmarks in
            let r, _ = score_joins w ~k:config.k ~client in
            Prelude.Stats.add acc r
          in
          measure Nearby.Client.Closest closest;
          measure Nearby.Client.Uniform random)
        config.seeds;
      {
        count;
        ratio_closest = Prelude.Stats.mean closest;
        ratio_random_lmk = Prelude.Stats.mean random;
      })
    config.counts

let print_ablation rows =
  print_endline "E1-ablation: round 1 (closest landmark) vs random landmark choice";
  Prelude.Table.print
    ~header:[ "landmarks"; "closest (paper)"; "random landmark" ]
    (List.map
       (fun r ->
         [
           string_of_int r.count;
           Prelude.Table.float_cell r.ratio_closest;
           Prelude.Table.float_cell r.ratio_random_lmk;
         ])
       rows)
