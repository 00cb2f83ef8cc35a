type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  inflations : float list;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 500;
    landmark_count = 8;
    k = 5;
    inflations = [ 0.0; 0.25; 0.5; 1.0; 2.0; 4.0 ];
    seed = 1;
  }

let quick_config =
  { routers = 600; peers = 150; landmark_count = 6; k = 5; inflations = [ 0.0; 1.0; 4.0 ]; seed = 1 }

type row = {
  inflation : float;
  route_stretch : float;
  route_divergence : float;
  ratio_proposed : float;
  ratio_random : float;
  hit_proposed : float;
}

let run config =
  let base =
    Workload.build ~routers:config.routers ~landmark_count:config.landmark_count
      ~peers:config.peers ~seed:config.seed ()
  in
  let graph = base.Workload.map.graph in
  List.map
    (fun inflation ->
      let oracle = Traceroute.Route_oracle.create_inflated graph ~inflation ~seed:(config.seed + 17) in
      let ctx : Nearby.Selector.context =
        { graph; oracle; latency = None; peer_routers = base.peer_routers }
      in
      let rng = Prelude.Prng.create (config.seed + 23) in
      let proposed =
        Nearby.Selector.select ctx
          (Proposed { landmarks = base.landmarks })
          ~k:config.k ~rng
      in
      let random = Nearby.Selector.select ctx Random_peers ~k:config.k ~rng in
      let outcome =
        Measure.score ctx ~k:config.k ~named_sets:[ ("p", proposed); ("r", random) ]
      in
      let ratio_proposed, ratio_random, hit_proposed =
        match outcome.scored with
        | [ p; r ] -> (p.ratio, r.ratio, p.hit_ratio)
        | _ -> assert false
      in
      (* Route stretch and divergence vs the hop-shortest oracle, over a
         peer sample.  On access-tree maps most deviations are equal-length
         detours in the core, so divergence (did the recorded route change
         at all?) is the telling statistic. *)
      let hop_oracle = Traceroute.Route_oracle.create graph in
      let stretch = Prelude.Stats.create () in
      let diverged = ref 0 and sampled = ref 0 in
      Array.iteri
        (fun i attach ->
          if i mod 5 = 0 then begin
            let lmk, _ = Nearby.Landmark.closest oracle ~landmarks:base.landmarks attach in
            let recorded = Traceroute.Route_oracle.route oracle ~src:attach ~dst:lmk in
            let shortest = Topology.Bfs.distance graph attach lmk in
            if shortest > 0 && recorded <> [] then begin
              incr sampled;
              Prelude.Stats.add stretch
                (float_of_int (List.length recorded - 1) /. float_of_int shortest);
              if recorded <> Traceroute.Route_oracle.route hop_oracle ~src:attach ~dst:lmk then
                incr diverged
            end
          end)
        base.peer_routers;
      {
        inflation;
        route_stretch = Prelude.Stats.mean stretch;
        route_divergence =
          (if !sampled = 0 then 0.0 else float_of_int !diverged /. float_of_int !sampled);
        ratio_proposed;
        ratio_random;
        hit_proposed;
      })
    config.inflations

let print rows =
  print_endline "inflation: discovery quality under policy routing (non-shortest paths)";
  Prelude.Table.print
    ~header:
      [ "inflation"; "route stretch"; "routes diverged"; "D/Dcl proposed"; "D/Dcl random"; "hit" ]
    (List.map
       (fun r ->
         [
           Prelude.Table.float_cell ~decimals:2 r.inflation;
           Prelude.Table.float_cell r.route_stretch;
           Prelude.Table.float_cell r.route_divergence;
           Prelude.Table.float_cell r.ratio_proposed;
           Prelude.Table.float_cell r.ratio_random;
           Prelude.Table.float_cell r.hit_proposed;
         ])
       rows)
