(* Selector strategies and Measure scoring. *)

open Nearby

let small_context ~peers ~seed =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 400) ~seed in
  let rng = Prelude.Prng.create (seed + 1000) in
  let peer_routers =
    Array.init peers (fun _ -> map.leaves.(Prelude.Prng.int rng (Array.length map.leaves)))
  in
  let ctx = Selector.make_context map.graph ~peer_routers in
  let landmarks = Landmark.place map.graph Landmark.Medium_degree ~count:4 ~rng in
  (ctx, landmarks, rng)

let check_valid_sets ~n ~k sets =
  Alcotest.(check int) "one set per peer" n (Array.length sets);
  Array.iteri
    (fun peer set ->
      Alcotest.(check bool) "at most k" true (Array.length set <= k);
      Alcotest.(check bool) "exactly k for this population" true (Array.length set = min k (n - 1));
      Array.iter
        (fun j ->
          Alcotest.(check bool) "valid id" true (j >= 0 && j < n);
          Alcotest.(check bool) "not self" true (j <> peer))
        set;
      let sorted = List.sort_uniq compare (Array.to_list set) in
      Alcotest.(check int) "distinct" (Array.length set) (List.length sorted))
    sets

let test_all_strategies_produce_valid_sets () =
  let ctx, landmarks, rng = small_context ~peers:30 ~seed:1 in
  let k = 5 in
  List.iter
    (fun strategy ->
      let sets = Selector.select ctx strategy ~k ~rng in
      check_valid_sets ~n:30 ~k sets)
    [
      Selector.Proposed { landmarks };
      Selector.Random_peers;
      Selector.Oracle_closest;
      Selector.Vivaldi_rounds { rounds = 3; params = Coord.Vivaldi.default_params };
      Selector.Gnp_landmarks { landmarks; dims = 2 };
    ]

let test_strategy_names () =
  Alcotest.(check string) "random" "random" (Selector.strategy_name Selector.Random_peers);
  Alcotest.(check string) "closest" "closest" (Selector.strategy_name Selector.Oracle_closest);
  Alcotest.(check string) "vivaldi" "vivaldi-7r"
    (Selector.strategy_name (Selector.Vivaldi_rounds { rounds = 7; params = Coord.Vivaldi.default_params }))

let test_oracle_sets_are_optimal () =
  let ctx, _, rng = small_context ~peers:25 ~seed:2 in
  let k = 4 in
  let sets = Selector.select ctx Selector.Oracle_closest ~k ~rng in
  (* For each peer, no non-chosen peer may be strictly closer than a chosen
     one. *)
  Array.iteri
    (fun peer set ->
      let dist = Topology.Bfs.distances ctx.graph ctx.peer_routers.(peer) in
      let d j = dist.(ctx.peer_routers.(j)) in
      let worst_chosen = Array.fold_left (fun acc j -> max acc (d j)) 0 set in
      for j = 0 to 24 do
        if j <> peer && not (Array.mem j set) then
          Alcotest.(check bool) "unchosen not closer" true (d j >= worst_chosen)
      done)
    sets

let test_small_population_smaller_sets () =
  let ctx, _, rng = small_context ~peers:3 ~seed:3 in
  let sets = Selector.select ctx Selector.Random_peers ~k:10 ~rng in
  Array.iter (fun set -> Alcotest.(check int) "only 2 others exist" 2 (Array.length set)) sets

let test_measure_oracle_ratio_is_one () =
  let ctx, _, rng = small_context ~peers:20 ~seed:4 in
  let k = 3 in
  let optimal = Selector.select ctx Selector.Oracle_closest ~k ~rng in
  let outcome = Eval.Measure.score ctx ~k ~named_sets:[ ("opt", optimal) ] in
  match outcome.scored with
  | [ s ] ->
      Alcotest.(check (float 1e-9)) "ratio 1" 1.0 s.ratio;
      Alcotest.(check (float 1e-9)) "hit ratio 1" 1.0 s.hit_ratio;
      Alcotest.(check int) "same totals" outcome.total_d_closest s.total_d
  | _ -> Alcotest.fail "one scored entry expected"

let test_measure_ratios_ordered () =
  let ctx, landmarks, rng = small_context ~peers:60 ~seed:5 in
  let k = 5 in
  let proposed =
    Selector.select ctx (Selector.Proposed { landmarks }) ~k ~rng
  in
  let random = Selector.select ctx Selector.Random_peers ~k ~rng in
  let outcome = Eval.Measure.score ctx ~k ~named_sets:[ ("p", proposed); ("r", random) ] in
  match outcome.scored with
  | [ p; r ] ->
      Alcotest.(check bool) "proposed >= 1" true (p.ratio >= 1.0);
      Alcotest.(check bool) "random >= 1" true (r.ratio >= 1.0);
      Alcotest.(check bool)
        (Printf.sprintf "proposed (%.3f) beats random (%.3f)" p.ratio r.ratio)
        true (p.ratio < r.ratio);
      Alcotest.(check bool) "proposed hits more optimal peers" true (p.hit_ratio > r.hit_ratio)
  | _ -> Alcotest.fail "two scored entries expected"

let test_measure_validation () =
  let ctx, _, _ = small_context ~peers:5 ~seed:6 in
  Alcotest.check_raises "wrong set count"
    (Invalid_argument "Measure.score: selector \"x\" has 2 sets for 5 peers") (fun () ->
      ignore (Eval.Measure.score ctx ~k:2 ~named_sets:[ ("x", [| [||]; [||] |]) ]))

(* Four peers on the line 0-1-2-3-4, at routers 0, 1, 3 and 4, so every
   pair distance is known by hand:
     d(0,1) = 1  d(0,2) = 3  d(0,3) = 4  d(1,2) = 2  d(1,3) = 3  d(2,3) = 1.
   With k = 2 the optimal sets are {1,2} {0,2} {3,1} {2,1}, summing to
   4 + 3 + 3 + 4 = 14.  The chosen sets below swap one optimal neighbor for
   a farther one at peers 0 and 2 (D = 5 and 4) and keep peers 1 and 3
   optimal: total 16, and half-, full-, half- and full-hit average 0.75. *)
let test_measure_exact_scores () =
  let graph = Topology.Graph.of_edges ~node_count:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let ctx = Selector.make_context graph ~peer_routers:[| 0; 1; 3; 4 |] in
  let chosen = [| [| 1; 3 |]; [| 0; 2 |]; [| 0; 3 |]; [| 2; 1 |] |] in
  let outcome = Eval.Measure.score ctx ~k:2 ~named_sets:[ ("chosen", chosen) ] in
  Alcotest.(check int) "total_d_closest" 14 outcome.total_d_closest;
  Alcotest.(check (array (array int))) "optimal sets"
    [| [| 1; 2 |]; [| 0; 2 |]; [| 3; 1 |]; [| 2; 1 |] |]
    outcome.optimal_sets;
  match outcome.scored with
  | [ s ] ->
      Alcotest.(check int) "total_d" 16 s.total_d;
      Alcotest.(check (float 1e-12)) "ratio" (16.0 /. 14.0) s.ratio;
      Alcotest.(check (float 1e-12)) "hit ratio" 0.75 s.hit_ratio
  | _ -> Alcotest.fail "one scored entry expected"

let test_hybrid_composition () =
  let ctx, landmarks, rng = small_context ~peers:30 ~seed:15 in
  let k = 5 and random_links = 2 in
  let hybrid =
    Selector.select ctx
      (Selector.Hybrid
         {
           primary = Selector.Proposed { landmarks };
           random_links;
         })
      ~k ~rng
  in
  check_valid_sets ~n:30 ~k hybrid;
  Array.iter (fun set -> Alcotest.(check int) "full size" k (Array.length set)) hybrid;
  Alcotest.check_raises "random_links > k"
    (Invalid_argument "Selector.select: random_links must be in [0, k]") (fun () ->
      ignore
        (Selector.select ctx
           (Selector.Hybrid { primary = Selector.Random_peers; random_links = 9 })
           ~k:3 ~rng))

let test_meridian_selector () =
  let ctx, _, rng = small_context ~peers:25 ~seed:16 in
  let sets =
    Selector.select ctx (Selector.Meridian_rings { params = Coord.Meridian.default_params }) ~k:4
      ~rng
  in
  Alcotest.(check int) "one set per peer" 25 (Array.length sets);
  Array.iteri
    (fun peer set ->
      Alcotest.(check bool) "bounded" true (Array.length set <= 4);
      Array.iter (fun j -> Alcotest.(check bool) "not self" true (j <> peer)) set)
    sets;
  (* Meridian should land closer than random on average. *)
  let random = Selector.select ctx Selector.Random_peers ~k:4 ~rng in
  let outcome = Eval.Measure.score ctx ~k:4 ~named_sets:[ ("m", sets); ("r", random) ] in
  match outcome.scored with
  | [ m; r ] ->
      Alcotest.(check bool)
        (Printf.sprintf "meridian %.3f <= random %.3f + slack" m.ratio r.ratio)
        true
        (m.ratio <= r.ratio +. 0.15)
  | _ -> Alcotest.fail "two entries expected"

let test_proposed_beats_random_consistently () =
  (* The fig2 claim at miniature scale, across several seeds. *)
  let wins = ref 0 in
  for seed = 10 to 14 do
    let ctx, landmarks, rng = small_context ~peers:40 ~seed in
    let k = 4 in
    let proposed =
      Selector.select ctx (Selector.Proposed { landmarks }) ~k ~rng
    in
    let random = Selector.select ctx Selector.Random_peers ~k ~rng in
    let outcome = Eval.Measure.score ctx ~k ~named_sets:[ ("p", proposed); ("r", random) ] in
    match outcome.scored with
    | [ p; r ] -> if p.ratio < r.ratio then incr wins
    | _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "proposed won %d/5 seeds" !wins) true (!wins >= 4)

let suite =
  ( "selector+quality",
    [
      Alcotest.test_case "strategies valid" `Slow test_all_strategies_produce_valid_sets;
      Alcotest.test_case "strategy names" `Quick test_strategy_names;
      Alcotest.test_case "oracle optimal" `Quick test_oracle_sets_are_optimal;
      Alcotest.test_case "tiny population" `Quick test_small_population_smaller_sets;
      Alcotest.test_case "measure oracle ratio" `Quick test_measure_oracle_ratio_is_one;
      Alcotest.test_case "measure ordering" `Slow test_measure_ratios_ordered;
      Alcotest.test_case "measure validation" `Quick test_measure_validation;
      Alcotest.test_case "measure exact scores" `Quick test_measure_exact_scores;
      Alcotest.test_case "hybrid composition" `Quick test_hybrid_composition;
      Alcotest.test_case "meridian selector" `Slow test_meridian_selector;
      Alcotest.test_case "proposed beats random across seeds" `Slow test_proposed_beats_random_consistently;
    ] )
