(* Latency_tree (the integer core with microsecond costs) and its
   agreement with the hop tree under unit latencies; the core's own
   structural and range checks. *)

open Nearby

let lmk = 50

let unit_hops routers = Array.mapi (fun i r -> (r, float_of_int i)) routers

let test_basic () =
  let t = Latency_tree.create ~landmark:lmk in
  Latency_tree.insert t ~peer:0 ~hops:[| (1, 0.0); (2, 3.5); (lmk, 5.0) |];
  Latency_tree.insert t ~peer:1 ~hops:[| (3, 0.0); (2, 2.0); (lmk, 3.5) |];
  (match Latency_tree.meeting_point t 0 1 with
  | Some (router, c1, c2) ->
      Alcotest.(check int) "meets at router 2" 2 router;
      Alcotest.(check (float 1e-9)) "cost 1" 3.5 c1;
      Alcotest.(check (float 1e-9)) "cost 2" 2.0 c2
  | None -> Alcotest.fail "no meeting point");
  Alcotest.(check (option (float 1e-9))) "dtree" (Some 5.5) (Latency_tree.dtree t 0 1);
  Latency_tree.check_invariants t

let test_insert_validation () =
  let t = Latency_tree.create ~landmark:lmk in
  Alcotest.check_raises "decreasing costs"
    (Invalid_argument "Path_tree.insert: costs must be non-decreasing") (fun () ->
      Latency_tree.insert t ~peer:0 ~hops:[| (1, 5.0); (lmk, 2.0) |])

let test_query () =
  let t = Latency_tree.create ~landmark:lmk in
  (* Two peers meeting the query path at the same router but at different
     latencies: the latency tree must prefer the lower-latency one even if
     the hop counts would say otherwise. *)
  Latency_tree.insert t ~peer:0 ~hops:[| (10, 0.0); (2, 20.0); (lmk, 25.0) |];
  Latency_tree.insert t ~peer:1 ~hops:[| (11, 0.0); (12, 1.0); (13, 2.0); (2, 3.0); (lmk, 8.0) |];
  let query_hops = [| (20, 0.0); (2, 4.0); (lmk, 9.0) |] in
  (* dtree(query, 0) = 4 + 20 = 24; dtree(query, 1) = 4 + 3 = 7: peer 1 wins
     despite its longer (4-hop) path. *)
  Alcotest.(check (list (pair int (float 1e-9)))) "latency order" [ (1, 7.0); (0, 24.0) ]
    (Latency_tree.query t ~hops:query_hops ~k:2 ())

let test_hops_of_route () =
  let d = Eval.Paper_drawing.build () in
  let latency = Topology.Latency.assign d.graph Topology.Latency.Hop_count ~seed:1 in
  let oracle = Traceroute.Route_oracle.create d.graph in
  let route = Traceroute.Route_oracle.route oracle ~src:d.p1 ~dst:d.lmk in
  let hops = Latency_tree.hops_of_route ~latency route in
  Alcotest.(check int) "same length" (List.length route) (Array.length hops);
  (* Under Hop_count latency, cumulative cost = position. *)
  Array.iteri
    (fun i (r, c) ->
      Alcotest.(check int) "router order" (List.nth route i) r;
      Alcotest.(check (float 1e-9)) "cumulative" (float_of_int i) c)
    hops

let test_agrees_with_hop_tree_under_unit_latency () =
  (* On the drawing with 1 ms links, latency dtree = hop dtree. *)
  let d = Eval.Paper_drawing.build () in
  let latency = Topology.Latency.assign d.graph Topology.Latency.Hop_count ~seed:1 in
  let oracle = Traceroute.Route_oracle.create d.graph in
  let hop_tree = Path_tree.create ~landmark:d.lmk in
  let lat_tree = Latency_tree.create ~landmark:d.lmk in
  Array.iteri
    (fun peer attach ->
      let route = Traceroute.Route_oracle.route oracle ~src:attach ~dst:d.lmk in
      Path_tree.insert hop_tree ~peer ~routers:(Array.of_list route);
      Latency_tree.insert lat_tree ~peer ~hops:(Latency_tree.hops_of_route ~latency route))
    (Eval.Paper_drawing.peer_attach_routers d);
  for p1 = 0 to 3 do
    for p2 = 0 to 3 do
      let hop = Option.map float_of_int (Path_tree.dtree hop_tree p1 p2) in
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "dtree %d %d" p1 p2)
        hop (Latency_tree.dtree lat_tree p1 p2)
    done;
    Alcotest.(check (list int)) "query order agrees"
      (List.map fst (Path_tree.query_member hop_tree ~peer:p1 ~k:3))
      (List.map fst (Latency_tree.query_member lat_tree ~peer:p1 ~k:3))
  done

let test_remove_and_members () =
  let t = Latency_tree.create ~landmark:lmk in
  Latency_tree.insert t ~peer:7 ~hops:[| (1, 0.0); (lmk, 4.0) |];
  Alcotest.(check bool) "mem" true (Latency_tree.mem t 7);
  Alcotest.(check int) "routers" 2 (Latency_tree.router_count t);
  Latency_tree.remove t 7;
  Alcotest.(check int) "members" 0 (Latency_tree.member_count t);
  Alcotest.(check int) "buckets reclaimed" 0 (Latency_tree.router_count t)

let test_metric_ablation_smoke () =
  let rows =
    Eval.Metric_ablation.run
      { Eval.Metric_ablation.routers = 300; peers = 60; landmark_count = 4; k = 3; seeds = [ 1 ] }
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let find m = List.find (fun (r : Eval.Metric_ablation.row) -> r.metric = m) rows in
  let hops = find "hops" and lat = find "latency" in
  (* Each metric must win (or tie) under its own ground truth. *)
  Alcotest.(check bool) "hop tree best in hops" true (hops.ratio_hops <= lat.ratio_hops +. 1e-9);
  Alcotest.(check bool) "latency tree best in latency" true
    (lat.ratio_latency <= hops.ratio_latency +. 1e-9);
  List.iter
    (fun (r : Eval.Metric_ablation.row) ->
      Alcotest.(check bool) "ratios >= 1" true (r.ratio_hops >= 1.0 && r.ratio_latency >= 1.0))
    rows

(* Zero-latency links make candidate costs tie along the walk: a peer met
   at a router and again one zero-latency link further out is offered at
   the same cost twice, and only the selector's held entries stop it
   counting twice.  The reference is the naive scan over the same sink
   tree with every zero-latency link contracted: a router whose link
   toward the landmark costs 0 is dropped from the paths, so a router's
   position in a contracted path is its latency from the peer, and the
   contracted meeting point sits at the same latencies. *)
let qcheck_zero_latency_links_match_naive =
  QCheck.Test.make ~name:"zero-latency links: latency tree = naive registry" ~count:200
    QCheck.(pair small_int (int_range 2 60))
    (fun (seed, n_peers) ->
      let rng = Prelude.Prng.create (seed + 1009) in
      let n_routers = 25 in
      let parent = Array.init n_routers (fun r -> if r = 0 then -1 else Prelude.Prng.int rng r) in
      (* Latency of the link from router r toward the landmark: mostly 0. *)
      let link = Array.init n_routers (fun r -> if r > 0 && Prelude.Prng.int rng 3 = 0 then 1 else 0) in
      let route r =
        let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
        climb r []
      in
      let hops r =
        let cost = ref 0 in
        Array.of_list
          (List.map
             (fun router ->
               let c = !cost in
               cost := c + link.(router);
               (router, float_of_int c))
             (route r))
      in
      let contracted r =
        Array.of_list (List.filter (fun router -> router = 0 || link.(router) = 1) (route r))
      in
      let tree = Latency_tree.create ~landmark:0 and naive = Naive_registry.create ~landmark:0 in
      for peer = 0 to n_peers - 1 do
        let attach = Prelude.Prng.int rng n_routers in
        Latency_tree.insert tree ~peer ~hops:(hops attach);
        Naive_registry.insert naive ~peer ~routers:(contracted attach)
      done;
      let as_int = List.map (fun (p, c) -> (p, int_of_float c)) in
      let k = 1 + Prelude.Prng.int rng 6 in
      let q = Prelude.Prng.int rng n_routers in
      as_int (Latency_tree.query tree ~hops:(hops q) ~k ())
      = Naive_registry.query naive ~routers:(contracted q) ~k ()
      && List.for_all
           (fun peer ->
             as_int (Latency_tree.query_member tree ~peer ~k)
             = Naive_registry.query_member naive ~peer ~k)
           (List.init n_peers Fun.id))

(* The integer core both trees share, driven directly: the structural
   cases the float API cannot reach. *)
module Core = Nearby.Path_tree_core

let split hops = (Array.map fst hops, Array.map snd hops)

let insert t ~peer ~hops =
  let routers, costs = split hops in
  Core.insert_path t ~peer ~routers ~costs

let query t ~hops ~k =
  let routers, costs = split hops in
  Core.query_path t ~routers ~costs ~k ()

let test_core_structure () =
  let t = Core.create ~landmark:9 in
  insert t ~peer:0 ~hops:[| (10, 0); (11, 1); (5, 2); (9, 9) |];
  insert t ~peer:1 ~hops:[| (20, 0); (5, 8); (9, 15) |];
  Core.check_invariants t;
  Alcotest.(check (option (triple int int int))) "meet at 5" (Some (5, 2, 8))
    (Core.meeting_point t 0 1);
  (* Router-indexed buckets: a negative router is refused, a far router id
     grows the index, and emptied routers leave the count. *)
  Alcotest.check_raises "negative router" (Invalid_argument "Path_tree.insert: negative router")
    (fun () -> insert t ~peer:2 ~hops:[| (-1, 0); (9, 1) |]);
  (* One cost array longer than either path serves both, read only up to
     each path's length and kept as given. *)
  let shared = [| 0; 1; 2; 3 |] in
  Core.insert_path t ~peer:2 ~routers:[| 4000; 5; 9 |] ~costs:shared;
  Core.insert_path t ~peer:3 ~routers:[| 4001; 9 |] ~costs:shared;
  Core.check_invariants t;
  Alcotest.(check int) "routers with far ids" 7 (Core.router_count t);
  Alcotest.(check (option (triple int int int))) "shared costs read per path" (Some (9, 2, 1))
    (Core.meeting_point t 2 3);
  Core.remove t 2;
  Core.remove t 0;
  Core.check_invariants t;
  (* Left: peer 1 (20, 5, 9) and peer 3 (4001, 9). *)
  Alcotest.(check int) "emptied routers dropped" 4 (Core.router_count t);
  let seen = ref [] in
  Core.iter_buckets t (fun router size -> seen := (router, size) :: !seen);
  Alcotest.(check (list (pair int int)))
    "live buckets only"
    [ (5, 1); (9, 2); (20, 1); (4001, 1) ]
    (List.sort compare !seen)

(* Two members with the same routers share one stored route only when
   their costs are equal too: a latency route is its routers and its
   costs.  Each keeps its own costs' answers either way. *)
let test_core_shares_equal_costs_only () =
  let t = Core.create ~landmark:9 in
  let routers () = [| 1; 5; 9 |] in
  Core.insert_path t ~peer:0 ~routers:(routers ()) ~costs:[| 0; 300; 700 |];
  Core.insert_path t ~peer:1 ~routers:(routers ()) ~costs:[| 0; 300; 700 |];
  Core.insert_path t ~peer:2 ~routers:(routers ()) ~costs:[| 0; 400; 700 |];
  let stored peer = Option.get (Core.routers_of t peer) in
  Alcotest.(check bool) "equal costs share" true (stored 0 == stored 1);
  Alcotest.(check bool) "different costs do not" false (stored 2 == stored 0);
  Alcotest.(check (array int)) "same routers" (stored 0) (stored 2);
  Alcotest.(check (list (pair int int))) "answers by own costs" [ (0, 0); (2, 0) ]
    (Core.query_member t ~peer:1 ~k:2);
  Alcotest.(check (option (triple int int int))) "meeting point" (Some (1, 0, 0))
    (Core.meeting_point t 0 2);
  Core.remove t 0;
  Core.check_invariants t;
  Alcotest.(check (array int)) "the sharer keeps the route" [| 1; 5; 9 |] (stored 1);
  (* Through the float API: equal latencies share, and read back exactly. *)
  let l = Latency_tree.create ~landmark:lmk in
  let hops = [| (1, 0.0); (2, 3.5); (lmk, 5.0) |] in
  Latency_tree.insert l ~peer:0 ~hops;
  Latency_tree.insert l ~peer:1 ~hops;
  Latency_tree.insert l ~peer:2 ~hops:[| (1, 0.0); (2, 1.5); (lmk, 5.0) |];
  Latency_tree.check_invariants l;
  Alcotest.(check (option (float 1e-9))) "dtree of sharers" (Some 0.0) (Latency_tree.dtree l 0 1);
  Alcotest.(check (list (pair int (float 1e-9)))) "query_member"
    [ (1, 0.0); (2, 0.0) ]
    (Latency_tree.query_member l ~peer:0 ~k:2)

(* A bucket entry packs (cost, peer) into one int, so a peer outside
   [0, 2^31) or a cost outside [0, 2^30) is refused before any write: the
   tree is left exactly as it was. *)
let test_core_ranges () =
  let t = Core.create ~landmark:9 in
  insert t ~peer:0 ~hops:[| (1, 0); (9, 3) |];
  let snapshot () = (Core.member_count t, Core.router_count t, Core.query_member t ~peer:0 ~k:5) in
  let before = snapshot () in
  let refused name msg f =
    Alcotest.check_raises name (Invalid_argument msg) f;
    Core.check_invariants t;
    Alcotest.(check bool) (name ^ ": tree unchanged") true (snapshot () = before)
  in
  let peer_range = "Path_tree.insert: peer out of range" in
  let cost_range = "Path_tree.insert: cost out of range" in
  refused "negative peer" peer_range (fun () -> insert t ~peer:(-1) ~hops:[| (2, 0); (9, 1) |]);
  refused "peer 2^31" peer_range (fun () -> insert t ~peer:(1 lsl 31) ~hops:[| (2, 0); (9, 1) |]);
  refused "negative cost" cost_range (fun () -> insert t ~peer:1 ~hops:[| (2, -1); (9, 1) |]);
  refused "cost 2^30" cost_range (fun () ->
      insert t ~peer:1 ~hops:[| (2, 0); (3, 1); (9, 1 lsl 30) |]);
  refused "query cost 2^30" "Path_tree.query: cost out of range" (fun () ->
      ignore (query t ~hops:[| (1, 0); (9, 1 lsl 30) |] ~k:3));
  refused "latency off the scale" "Latency_tree: cost out of range" (fun () ->
      Latency_tree.insert (Latency_tree.create ~landmark:9) ~peer:1 ~hops:[| (2, 0.0); (9, 1e9) |]);
  (* The extremes themselves pack, keep their order and come back. *)
  let top_peer = (1 lsl 31) - 1 and top_cost = (1 lsl 30) - 1 in
  insert t ~peer:top_peer ~hops:[| (1, 0); (9, top_cost) |];
  insert t ~peer:1 ~hops:[| (1, 0); (9, top_cost) |];
  Core.check_invariants t;
  Alcotest.(check (list (pair int int)))
    "extremes ordered by (cost, peer)"
    [ (0, 0); (1, 0); (top_peer, 0) ]
    (query t ~hops:[| (1, 0); (9, top_cost) |] ~k:3);
  (* Two maximal costs still sum and pack: a member meeting them only at
     the landmark. *)
  insert t ~peer:2 ~hops:[| (3, 0); (9, top_cost) |];
  Alcotest.(check (list (pair int int)))
    "maximal walk plus maximal entry"
    [ (0, top_cost + 3); (1, 2 * top_cost); (top_peer, 2 * top_cost) ]
    (Core.query_member t ~peer:2 ~k:4)

(* Latency of the link leaving router [r] toward the landmark, in µs:
   1 or 2 ms, so routes entering one router over different links often
   tie there. *)
let link_us r = if r mod 3 = 0 then 2000 else 1000

(* Cumulative latency along [routers]; a router named twice in a row adds
   nothing. *)
let latency_costs routers =
  let costs = Array.make (Array.length routers) 0 in
  for i = 1 to Array.length routers - 1 do
    costs.(i) <-
      (costs.(i - 1) + if routers.(i) = routers.(i - 1) then 0 else link_us routers.(i - 1))
  done;
  costs

(* The latency core under {!Tree_model.ops}' churn (many members per
   route, ties at inner routers, members sorting below their route's
   lowest, lowest members leaving, stuttering paths): after every step it
   passes its invariants and answers, asked by a route's lowest member
   too, and names the members through a router, as the model does.  Each
   insert passes a fresh cost array, so equal routes share by content. *)
let qcheck_core_matches_model =
  QCheck.Test.make ~name:"int core under churn: invariants, model answers" ~count:2
    QCheck.(pair small_nat (int_range 300 400))
    (fun (seed, n) ->
      List.for_all
        (fun order ->
          let rng = Prelude.Prng.create (seed + 1) in
          let model = Tree_model.create () and t = Core.create ~landmark:0 in
          List.for_all
            (fun op ->
              (match op with
              | Tree_model.Add (peer, routers) ->
                  let costs = latency_costs routers in
                  Core.insert_path t ~peer ~routers ~costs;
                  Tree_model.add model ~peer ~routers ~costs
              | Drop peer ->
                  Core.remove t peer;
                  Tree_model.remove model peer);
              Core.check_invariants t;
              Tree_model.agrees ~rng ~costs_of:latency_costs model
                ~tree_query:(fun ~routers ~costs ~k -> Core.query_path t ~routers ~costs ~k ())
                ~tree_query_member:(Core.query_member t) ~tree_member_through:(Core.member_through t)
                op)
            (Tree_model.ops ~order ~seed ~n ()))
        [ `Random; `Descending ])

let suite =
  ( "latency_tree",
    [
      Alcotest.test_case "basic" `Quick test_basic;
      Alcotest.test_case "insert validation" `Quick test_insert_validation;
      Alcotest.test_case "query by latency" `Quick test_query;
      Alcotest.test_case "hops_of_route" `Quick test_hops_of_route;
      Alcotest.test_case "agrees with hop tree" `Quick test_agrees_with_hop_tree_under_unit_latency;
      Alcotest.test_case "remove" `Quick test_remove_and_members;
      Alcotest.test_case "metric ablation" `Slow test_metric_ablation_smoke;
      Alcotest.test_case "int core structure" `Quick test_core_structure;
      Alcotest.test_case "int core ranges" `Quick test_core_ranges;
      Alcotest.test_case "int core shares equal costs only" `Quick test_core_shares_equal_costs_only;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
        qcheck_zero_latency_links_match_naive;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) qcheck_core_matches_model;
    ] )
