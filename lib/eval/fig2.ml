type config = {
  routers : int;
  landmark_count : int;
  k : int;
  peer_counts : int list;
  seeds : int list;
}

let default_config =
  {
    routers = 4000;
    landmark_count = 8;
    k = 5;
    peer_counts = [ 600; 800; 1000; 1200; 1400 ];
    seeds = [ 1; 2; 3 ];
  }

let quick_config =
  { routers = 1500; landmark_count = 8; k = 5; peer_counts = [ 600; 1000; 1400 ]; seeds = [ 1 ] }

type row = {
  n : int;
  ratio_proposed : float;
  ratio_random : float;
  ratio_proposed_ci : float;
  ratio_random_ci : float;
  hit_proposed : float;
}

let run_one config ~n ~seed =
  let w = Workload.build ~routers:config.routers ~landmark_count:config.landmark_count ~peers:n ~seed () in
  let rng = w.rng in
  let proposed =
    Nearby.Selector.select w.ctx
      (Proposed { landmarks = w.landmarks })
      ~k:config.k ~rng
  in
  let random = Nearby.Selector.select w.ctx Random_peers ~k:config.k ~rng in
  let outcome =
    Measure.score w.ctx ~k:config.k ~named_sets:[ ("proposed", proposed); ("random", random) ]
  in
  match outcome.scored with
  | [ p; r ] -> (p.ratio, r.ratio, p.hit_ratio)
  | _ -> assert false

let run config =
  List.map
    (fun n ->
      let prop = Prelude.Stats.create () in
      let rand = Prelude.Stats.create () in
      let hit = Prelude.Stats.create () in
      List.iter
        (fun seed ->
          let rp, rr, h = run_one config ~n ~seed in
          Prelude.Stats.add prop rp;
          Prelude.Stats.add rand rr;
          Prelude.Stats.add hit h)
        config.seeds;
      {
        n;
        ratio_proposed = Prelude.Stats.mean prop;
        ratio_random = Prelude.Stats.mean rand;
        ratio_proposed_ci = Prelude.Stats.ci95_halfwidth prop;
        ratio_random_ci = Prelude.Stats.ci95_halfwidth rand;
        hit_proposed = Prelude.Stats.mean hit;
      })
    config.peer_counts

let row_json r =
  let num = Simkit.Json_str.number in
  Simkit.Json_str.obj
    [
      ("n", string_of_int r.n);
      ("d_over_dclosest", num r.ratio_proposed);
      ("d_over_dclosest_ci", num r.ratio_proposed_ci);
      ("drandom_over_dclosest", num r.ratio_random);
      ("drandom_over_dclosest_ci", num r.ratio_random_ci);
      ("hit_ratio", num r.hit_proposed);
    ]

(* The paper's reading: D/Dclosest low (~1.1-1.2) and flat across n, and
   always below the random selection's ratio. *)
let gates rows =
  Regression.(
    List.map
      (fun r -> exact (Printf.sprintf "fig2/%d/d_over_dclosest" r.n) r.ratio_proposed)
      rows
    @ [
        flag "fig2/d_over_dclosest_in_1.0_1.3"
          (List.for_all (fun r -> r.ratio_proposed >= 1.0 && r.ratio_proposed <= 1.3) rows);
        flag "fig2/random_above_proposed"
          (List.for_all (fun r -> r.ratio_random > r.ratio_proposed) rows);
      ])

let print rows =
  print_endline "fig2: neighbor-set quality vs population size";
  print_endline "  (paper: D/Dclosest ~1.1-1.2 and flat; Drandom/Dclosest ~2.2-2.4 and noisy)";
  Prelude.Table.print
    ~header:[ "peers"; "D/Dclosest"; "+/-"; "Drandom/Dclosest"; "+/-"; "hit-ratio" ]
    (List.map
       (fun r ->
         [
           string_of_int r.n;
           Prelude.Table.float_cell r.ratio_proposed;
           Prelude.Table.float_cell r.ratio_proposed_ci;
           Prelude.Table.float_cell r.ratio_random;
           Prelude.Table.float_cell r.ratio_random_ci;
           Prelude.Table.float_cell r.hit_proposed;
         ])
       rows);
  let series label f =
    { Prelude.Ascii_plot.label; points = List.map (fun r -> (float_of_int r.n, f r)) rows }
  in
  print_newline ();
  print_string
    (Prelude.Ascii_plot.render ~y_min:1.0
       [ series "D / Dclosest" (fun r -> r.ratio_proposed);
         series "Drandom / Dclosest" (fun r -> r.ratio_random) ])
