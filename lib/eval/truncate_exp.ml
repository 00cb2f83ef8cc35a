type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  strategies : Traceroute.Truncate.strategy list;
  seeds : int list;
}

let standard_strategies =
  Traceroute.Truncate.[ Full; Every_k 2; Every_k 4; Last_k 4; Last_k 2; First_k 4; Min_degree 4 ]

let default_config =
  {
    routers = 2000;
    peers = 800;
    landmark_count = 8;
    k = 5;
    strategies = standard_strategies;
    seeds = [ 1; 2 ];
  }

let quick_config =
  {
    routers = 800;
    peers = 200;
    landmark_count = 8;
    k = 5;
    strategies = Traceroute.Truncate.[ Full; Every_k 2; Last_k 4; First_k 4 ];
    seeds = [ 1 ];
  }

type row = {
  strategy : Traceroute.Truncate.strategy;
  ratio : float;
  hit_ratio : float;
  mean_probes_per_join : float;
}

let run config =
  List.map
    (fun strategy ->
      let ratio = Prelude.Stats.create () in
      let hit = Prelude.Stats.create () in
      let probes = Prelude.Stats.create () in
      List.iter
        (fun seed ->
          let w =
            Workload.build ~routers:config.routers ~landmark_count:config.landmark_count
              ~peers:config.peers ~seed ()
          in
          let server = Nearby.Server.create w.ctx.oracle ~landmarks:w.landmarks in
          let client = Nearby.Client.create ~truncate:strategy w.ctx.oracle ~landmarks:w.landmarks in
          let n = Array.length w.peer_routers in
          let join_rng = Prelude.Prng.split w.rng in
          for peer = 0 to n - 1 do
            let info = Nearby.Server.join ~rng:join_rng server ~client ~peer ~attach_router:w.peer_routers.(peer) in
            Prelude.Stats.add probes (float_of_int info.probes_spent)
          done;
          let sets =
            Array.init n (fun peer ->
                Nearby.Server.neighbors server ~peer ~k:config.k |> List.map fst |> Array.of_list)
          in
          let outcome = Measure.score w.ctx ~k:config.k ~named_sets:[ ("t", sets) ] in
          match outcome.scored with
          | [ s ] ->
              Prelude.Stats.add ratio s.ratio;
              Prelude.Stats.add hit s.hit_ratio
          | _ -> assert false)
        config.seeds;
      {
        strategy;
        ratio = Prelude.Stats.mean ratio;
        hit_ratio = Prelude.Stats.mean hit;
        mean_probes_per_join = Prelude.Stats.mean probes;
      })
    config.strategies

let row_json r =
  let num = Simkit.Json_str.number in
  Simkit.Json_str.obj
    [
      ("strategy", Simkit.Json_str.quote (Traceroute.Truncate.describe r.strategy));
      ("d_over_dclosest", num r.ratio);
      ("hit_ratio", num r.hit_ratio);
      ("probes_per_join", num r.mean_probes_per_join);
    ]

(* E4's trade-off, gated: every strategy's quality and cost, and the shape
   the trade-off must keep — truncating never beats the full trace on
   quality, and never costs more probes than it. *)
let gates rows =
  let full = List.find (fun r -> r.strategy = Traceroute.Truncate.Full) rows in
  let lower r metric v =
    let name = Printf.sprintf "truncate/%s/%s" (Traceroute.Truncate.describe r.strategy) metric in
    Regression.gate name v Lower_better 0.05
  in
  List.concat_map
    (fun r ->
      [ lower r "d_over_dclosest" r.ratio; lower r "probes_per_join" r.mean_probes_per_join ])
    rows
  @ Regression.
      [
        flag "truncate/full_best_quality"
          (List.for_all (fun r -> r == full || full.ratio < r.ratio) rows);
        flag "truncate/full_probes_most"
          (List.for_all (fun r -> r.mean_probes_per_join <= full.mean_probes_per_join) rows);
      ]

let print rows =
  print_endline "E4: decreased traceroute - quality vs probe cost";
  Prelude.Table.print
    ~header:[ "strategy"; "D/Dclosest"; "hit-ratio"; "probes/join" ]
    (List.map
       (fun r ->
         [
           Traceroute.Truncate.describe r.strategy;
           Prelude.Table.float_cell r.ratio;
           Prelude.Table.float_cell r.hit_ratio;
           Prelude.Table.float_cell ~decimals:1 r.mean_probes_per_join;
         ])
       rows)
