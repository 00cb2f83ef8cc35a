type config = { routers : int; peers : int; landmark_count : int; k : int; seeds : int list }

let default_config = { routers = 2000; peers = 800; landmark_count = 8; k = 5; seeds = [ 1; 2; 3 ] }
let quick_config = { routers = 800; peers = 200; landmark_count = 4; k = 5; seeds = [ 1 ] }

type row = {
  seed : int;
  ratio_central : float;
  ratio_super : float;
  load_imbalance : float;
  max_region_members : int;
  min_region_members : int;
}

(* A region's super-peer holds its landmark's tree and answers out of it
   alone, so the super-peers together are a second server whose answers
   drop the cross-tree top-up (distance [max_int]).  Each server joins
   with its own split of the workload rng. *)
let run config =
  List.map
    (fun seed ->
      let w =
        Workload.build ~routers:config.routers ~landmark_count:config.landmark_count
          ~peers:config.peers ~seed ()
      in
      let n = Array.length w.Workload.peer_routers in
      let joined rng =
        let server = Nearby.Server.create w.ctx.oracle ~landmarks:w.landmarks in
        let client = Nearby.Client.create w.ctx.oracle ~landmarks:w.landmarks in
        for peer = 0 to n - 1 do
          ignore (Nearby.Server.join ~rng server ~client ~peer ~attach_router:w.peer_routers.(peer))
        done;
        server
      in
      let answers ~home_only server =
        Array.init n (fun peer ->
            Nearby.Server.neighbors server ~peer ~k:config.k
            |> List.filter_map (fun (p, d) -> if home_only && d = max_int then None else Some p)
            |> Array.of_list)
      in
      let central = joined (Prelude.Prng.split w.rng) in
      let central_sets = answers ~home_only:false central in
      let supers = joined (Prelude.Prng.split w.rng) in
      let super_sets = answers ~home_only:true supers in
      let outcome =
        Measure.score w.ctx ~k:config.k
          ~named_sets:[ ("central", central_sets); ("super", super_sets) ]
      in
      let ratio_central, ratio_super =
        match outcome.scored with
        | [ c; s ] -> (c.ratio, s.ratio)
        | _ -> assert false
      in
      let members = Measure.landmark_members supers in
      {
        seed;
        ratio_central;
        ratio_super;
        load_imbalance = Measure.max_over_mean members;
        max_region_members = List.fold_left max 0 members;
        min_region_members = List.fold_left min max_int members;
      })
    config.seeds

let row_json r =
  let num = Simkit.Json_str.number in
  Simkit.Json_str.obj
    [
      ("seed", string_of_int r.seed);
      ("central_d_over_dclosest", num r.ratio_central);
      ("super_d_over_dclosest", num r.ratio_super);
      ("load_imbalance", num r.load_imbalance);
      ("max_region_members", string_of_int r.max_region_members);
      ("min_region_members", string_of_int r.min_region_members);
    ]

(* E2, gated per seed: both answers' quality, and the region sizes the
   load split rests on. *)
let gates rows =
  List.concat_map
    (fun r ->
      let name metric = Printf.sprintf "superpeers/%d/%s" r.seed metric in
      Regression.
        [
          gate (name "central_d_over_dclosest") r.ratio_central Lower_better 0.05;
          gate (name "super_d_over_dclosest") r.ratio_super Lower_better 0.05;
          exact (name "max_region_members") (float_of_int r.max_region_members);
          exact (name "min_region_members") (float_of_int r.min_region_members);
        ])
    rows

let print rows =
  print_endline "E2: centralized server vs per-landmark super-peers";
  Prelude.Table.print
    ~header:[ "seed"; "central D/Dcl"; "super D/Dcl"; "imbalance"; "max region"; "min region" ]
    (List.map
       (fun r ->
         [
           string_of_int r.seed;
           Prelude.Table.float_cell r.ratio_central;
           Prelude.Table.float_cell r.ratio_super;
           Prelude.Table.float_cell ~decimals:2 r.load_imbalance;
           string_of_int r.max_region_members;
           string_of_int r.min_region_members;
         ])
       rows)
