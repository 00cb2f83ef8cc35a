(* Bfs, Dijkstra, Centrality, Degree, Latency. *)

open Topology

(* 0-1-2-3 path plus pendant 4 off node 1, and an isolated pair 5-6. *)
let forest () =
  Graph.of_edges ~node_count:7 [ (0, 1); (1, 2); (2, 3); (1, 4); (5, 6) ]

let path5 () = Graph.of_edges ~node_count:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]

(* Star with center 0 and leaves 1..4. *)
let star () = Graph.of_edges ~node_count:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ]

let test_bfs_distances () =
  let d = Bfs.distances (forest ()) 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 2; max_int; max_int |] d

let test_bfs_distance_pair () =
  let g = forest () in
  Alcotest.(check int) "same node" 0 (Bfs.distance g 3 3);
  Alcotest.(check int) "pair" 3 (Bfs.distance g 0 3);
  Alcotest.(check int) "unreachable" max_int (Bfs.distance g 0 5)

let test_bfs_within () =
  let g = forest () in
  let within = Bfs.distances_within g 1 1 in
  Alcotest.(check (list (pair int int))) "radius 1" [ (1, 0); (0, 1); (2, 1); (4, 1) ] within

let test_bfs_parents_path () =
  let g = forest () in
  let parents, depths = Bfs.tree g 0 in
  Alcotest.(check (array int)) "depths are distances" (Bfs.distances g 0) depths;
  Alcotest.(check (list int)) "path to 3" [ 0; 1; 2; 3 ] (Bfs.path_to ~parents ~src:0 3);
  Alcotest.(check (list int)) "path to source" [ 0 ] (Bfs.path_to ~parents ~src:0 0);
  Alcotest.(check (list int)) "unreachable" [] (Bfs.path_to ~parents ~src:0 6)

let test_bfs_parents_deterministic () =
  (* A 4-cycle: two shortest paths from 0 to 2; the lowest-id parent (1) must
     win over 3. *)
  let g = Graph.of_edges ~node_count:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let parents, _ = Bfs.tree g 0 in
  Alcotest.(check int) "parent of 2 is 1" 1 parents.(2)

let test_eccentricity () =
  Alcotest.(check int) "path end" 4 (Bfs.eccentricity (path5 ()) 0);
  Alcotest.(check int) "path middle" 2 (Bfs.eccentricity (path5 ()) 2);
  Alcotest.(check int) "forest ignores unreachable" 3 (Bfs.eccentricity (forest ()) 0)

let test_mean_pairwise () =
  let g = path5 () in
  let rng = Prelude.Prng.create 1 in
  let mean = Bfs.mean_pairwise_distance g ~samples:5000 ~rng in
  (* Exact mean over distinct ordered pairs of the 5-path is 2.0. *)
  Alcotest.(check bool) "near 2.0" true (abs_float (mean -. 2.0) < 0.15)

let test_dijkstra_unit_weights_match_bfs () =
  let g = forest () in
  let d = Dijkstra.distances g ~weight:(fun _ _ -> 1.0) 0 in
  let b = Bfs.distances g 0 in
  Array.iteri
    (fun v dv ->
      let expected = if b.(v) = max_int then infinity else float_of_int b.(v) in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "node %d" v) expected dv)
    d

let test_dijkstra_weighted_detour () =
  (* Triangle where the direct edge is expensive: 0-2 costs 10, 0-1-2 costs 3. *)
  let g = Graph.of_edges ~node_count:3 [ (0, 1); (1, 2); (0, 2) ] in
  let weight u v = match (min u v, max u v) with 0, 2 -> 10.0 | _ -> 1.5 in
  Alcotest.(check (float 1e-9)) "takes the detour" 3.0 (Dijkstra.distance g ~weight 0 2);
  let parents, depths = Dijkstra.tree g ~weight 0 in
  Alcotest.(check int) "parent of 2 is 1" 1 parents.(2);
  Alcotest.(check (array int)) "links to the source" [| 0; 1; 2 |] depths

let test_dijkstra_negative_weight () =
  let g = Graph.of_edges ~node_count:2 [ (0, 1) ] in
  Alcotest.check_raises "negative" (Invalid_argument "Dijkstra: negative edge weight") (fun () ->
      ignore (Dijkstra.distances g ~weight:(fun _ _ -> -1.0) 0))

let test_betweenness_path () =
  (* On a 5-path, exact betweenness is [0; 3; 4; 3; 0]. *)
  let b = Centrality.betweenness (path5 ()) in
  Alcotest.(check (array (float 1e-9))) "path betweenness" [| 0.0; 3.0; 4.0; 3.0; 0.0 |] b

let test_betweenness_star () =
  (* Star center lies on all C(4,2) = 6 leaf pairs. *)
  let b = Centrality.betweenness (star ()) in
  Alcotest.(check (float 1e-9)) "center" 6.0 b.(0);
  for v = 1 to 4 do
    Alcotest.(check (float 1e-9)) "leaf" 0.0 b.(v)
  done

let test_betweenness_sampled_unbiased () =
  let g = path5 () in
  let rng = Prelude.Prng.create 2 in
  (* Sampling all n sources must equal the exact algorithm. *)
  let sampled = Centrality.betweenness_sampled g ~sources:5 ~rng in
  let exact = Centrality.betweenness g in
  Array.iteri (fun v s -> Alcotest.(check (float 1e-6)) (string_of_int v) exact.(v) s) sampled

let test_closeness () =
  let g = star () in
  (* Center: mean distance 1 -> closeness 1. Leaf: distances 1,2,2,2 -> 4/7. *)
  Alcotest.(check (float 1e-9)) "center" 1.0 (Centrality.closeness g 0);
  Alcotest.(check (float 1e-9)) "leaf" (4.0 /. 7.0) (Centrality.closeness g 1)

let test_k_core () =
  (* A 4-clique with a pendant chain: clique nodes have core 3, chain 1. *)
  let g =
    Graph.of_edges ~node_count:6
      [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4); (4, 5) ]
  in
  let core = Centrality.k_core_numbers g in
  Alcotest.(check (array int)) "core numbers" [| 3; 3; 3; 3; 1; 1 |] core;
  Alcotest.(check (list int)) "3-core members" [ 0; 1; 2; 3 ] (Centrality.k_core_members g 3);
  Alcotest.(check (list int)) "4-core empty" [] (Centrality.k_core_members g 4)

let test_top_by () =
  let scores = [| 1.0; 5.0; 3.0; 5.0 |] in
  Alcotest.(check (list int)) "top 3, ties to lower id" [ 1; 3; 2 ] (Centrality.top_by scores 3);
  Alcotest.(check (list int)) "k > n" [ 1; 3; 2; 0 ] (Centrality.top_by scores 10)

let test_degree_histogram () =
  let h = Degree.histogram (star ()) in
  Alcotest.(check int) "one center" 1 (Prelude.Histogram.count h 4);
  Alcotest.(check int) "four leaves" 4 (Prelude.Histogram.count h 1)

let test_degree_fraction_gini () =
  let g = star () in
  Alcotest.(check (float 1e-9)) "fraction degree 1" 0.8 (Degree.fraction_with_degree g 1);
  (* A cycle is perfectly homogeneous: gini 0. *)
  let cycle = Graph.of_edges ~node_count:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check (float 1e-9)) "cycle gini" 0.0 (Degree.gini cycle);
  Alcotest.(check bool) "star gini positive" true (Degree.gini g > 0.2)

let test_power_law_alpha () =
  let g = Gen_ba.generate ~nodes:3000 ~edges_per_node:2 ~seed:5 in
  let alpha = Degree.power_law_alpha g ~x_min:3 in
  (* BA's theoretical exponent is 3; the MLE on a finite graph lands nearby. *)
  Alcotest.(check bool) (Printf.sprintf "alpha = %.2f in [2, 4.5]" alpha) true
    (alpha > 2.0 && alpha < 4.5);
  Alcotest.check_raises "x_min too high"
    (Invalid_argument "Degree.power_law_alpha: no node reaches x_min") (fun () ->
      ignore (Degree.power_law_alpha (star ()) ~x_min:50))

let test_median_percentile_degree () =
  let g = star () in
  Alcotest.(check int) "median" 1 (Degree.median_degree g);
  Alcotest.(check int) "p100" 4 (Degree.percentile_degree g 100.0)

let test_latency_models () =
  let g = path5 () in
  let hop = Latency.assign g Latency.Hop_count ~seed:1 in
  Alcotest.(check (float 1e-9)) "hop model" 1.0 (Latency.get hop 0 1);
  Alcotest.(check (float 1e-9)) "path latency" 4.0 (Latency.path_latency hop [| 0; 1; 2; 3; 4 |]);
  let uni = Latency.assign g (Latency.Uniform { lo = 2.0; hi = 5.0 }) ~seed:2 in
  List.iter
    (fun (u, v) ->
      let l = Latency.get uni u v in
      Alcotest.(check bool) "uniform in range" true (l >= 2.0 && l < 5.0);
      Alcotest.(check (float 1e-9)) "symmetric" l (Latency.get uni v u))
    (Graph.edges g);
  Alcotest.check_raises "missing edge" Not_found (fun () -> ignore (Latency.get hop 0 4))

let test_latency_core_weighted () =
  (* Star: center degree 4, leaves 1; with threshold 2 every link touches a
     leaf, so all links draw from the edge (slow) distribution mean. *)
  let g = star () in
  let t = Latency.assign g (Latency.Core_weighted { core_ms = 1.0; edge_ms = 50.0; threshold = 2 }) ~seed:3 in
  List.iter
    (fun (u, v) -> Alcotest.(check bool) "positive" true (Latency.get t u v > 0.0))
    (Graph.edges g)

let test_latency_deterministic () =
  let g = path5 () in
  let a = Latency.assign g (Latency.Uniform { lo = 1.0; hi = 2.0 }) ~seed:9 in
  let b = Latency.assign g (Latency.Uniform { lo = 1.0; hi = 2.0 }) ~seed:9 in
  List.iter
    (fun (u, v) -> Alcotest.(check (float 0.0)) "same seed same latency" (Latency.get a u v) (Latency.get b u v))
    (Graph.edges g)

let qcheck_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs satisfies triangle inequality on random graphs" ~count:50
    QCheck.(pair small_int (list (pair (int_range 0 11) (int_range 0 11))))
    (fun (seed, extra) ->
      let b = Builder.create 12 in
      (* Connect a ring to keep everything reachable, then add noise edges. *)
      for i = 0 to 11 do
        ignore (Builder.add_edge b i ((i + 1) mod 12))
      done;
      List.iter (fun (u, v) -> ignore (Builder.add_edge b u v)) extra;
      let g = Builder.to_graph b in
      let rng = Prelude.Prng.create seed in
      let x = Prelude.Prng.int rng 12 and y = Prelude.Prng.int rng 12 and z = Prelude.Prng.int rng 12 in
      Bfs.distance g x z <= Bfs.distance g x y + Bfs.distance g y z)

let suite =
  let q t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t in
  ( "paths",
    [
      Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
      Alcotest.test_case "bfs pair" `Quick test_bfs_distance_pair;
      Alcotest.test_case "bfs within" `Quick test_bfs_within;
      Alcotest.test_case "bfs parents path" `Quick test_bfs_parents_path;
      Alcotest.test_case "bfs deterministic tie-break" `Quick test_bfs_parents_deterministic;
      Alcotest.test_case "eccentricity" `Quick test_eccentricity;
      Alcotest.test_case "mean pairwise" `Slow test_mean_pairwise;
      Alcotest.test_case "dijkstra = bfs on unit weights" `Quick test_dijkstra_unit_weights_match_bfs;
      Alcotest.test_case "dijkstra detour" `Quick test_dijkstra_weighted_detour;
      Alcotest.test_case "dijkstra negative weight" `Quick test_dijkstra_negative_weight;
      Alcotest.test_case "betweenness path" `Quick test_betweenness_path;
      Alcotest.test_case "betweenness star" `Quick test_betweenness_star;
      Alcotest.test_case "betweenness sampled" `Quick test_betweenness_sampled_unbiased;
      Alcotest.test_case "closeness" `Quick test_closeness;
      Alcotest.test_case "k-core" `Quick test_k_core;
      Alcotest.test_case "top_by" `Quick test_top_by;
      Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
      Alcotest.test_case "degree fraction/gini" `Quick test_degree_fraction_gini;
      Alcotest.test_case "power-law alpha" `Slow test_power_law_alpha;
      Alcotest.test_case "median/percentile degree" `Quick test_median_percentile_degree;
      Alcotest.test_case "latency models" `Quick test_latency_models;
      Alcotest.test_case "latency core-weighted" `Quick test_latency_core_weighted;
      Alcotest.test_case "latency deterministic" `Quick test_latency_deterministic;
      q qcheck_bfs_triangle_inequality;
    ] )
