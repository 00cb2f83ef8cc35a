(* Path, Route_oracle, Probe, Truncate. *)

open Traceroute

(* The paper-drawing topology gives known routes. *)
let drawing () = Eval.Paper_drawing.build ()

let test_path_of_routers () =
  let p = Path.of_routers ~src:1 ~dst:3 [ 1; 2; 3 ] in
  Alcotest.(check int) "hop count" 2 (Path.hop_count p);
  Alcotest.(check bool) "complete" true (Path.is_complete p);
  Alcotest.(check (array int)) "known routers" [| 1; 2; 3 |] (Path.known_routers p);
  Alcotest.(check int) "no anonymous" 0 (Path.anonymous_count p);
  Alcotest.check_raises "must start at src" (Invalid_argument "Path.of_routers: route must start at src")
    (fun () -> ignore (Path.of_routers ~src:9 ~dst:3 [ 1; 2; 3 ]))

let test_path_anonymous () =
  let p = { Path.src = 0; dst = 2; hops = [| Path.Known 0; Path.Anonymous; Path.Known 2 |] } in
  Alcotest.(check (array int)) "skips anonymous" [| 0; 2 |] (Path.known_routers p);
  Alcotest.(check int) "counts anonymous" 1 (Path.anonymous_count p);
  Alcotest.(check bool) "still complete" true (Path.is_complete p);
  let cut = { Path.src = 0; dst = 9; hops = [| Path.Known 0; Path.Known 1 |] } in
  Alcotest.(check bool) "incomplete" false (Path.is_complete cut)

let test_path_pp_equal () =
  let p = { Path.src = 0; dst = 2; hops = [| Path.Known 0; Path.Anonymous; Path.Known 2 |] } in
  Alcotest.(check string) "pp" "0 -> * -> 2" (Format.asprintf "%a" Path.pp p);
  Alcotest.(check bool) "equal reflexive" true (Path.equal p p);
  Alcotest.(check bool) "not equal" false (Path.equal p (Path.of_routers ~src:0 ~dst:2 [ 0; 1; 2 ]))

let test_oracle_routes () =
  let d = drawing () in
  let oracle = Route_oracle.create d.graph in
  Alcotest.(check (list int)) "p1 route" [ d.p1; 4; 5; d.rc; d.ra; d.lmk ]
    (Route_oracle.route oracle ~src:d.p1 ~dst:d.lmk);
  Alcotest.(check (list int)) "self route" [ d.p1 ] (Route_oracle.route oracle ~src:d.p1 ~dst:d.p1);
  Alcotest.(check int) "route length" 5 (Route_oracle.route_length oracle ~src:d.p1 ~dst:d.lmk)

let test_oracle_sink_tree_property () =
  (* Destination-based forwarding: if w is on route(v, dst) then
     route(w, dst) is exactly the suffix starting at w. *)
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 300) ~seed:3 in
  let oracle = Route_oracle.create map.graph in
  let dst = map.core.(0) in
  Array.iter
    (fun leaf ->
      let route = Route_oracle.route oracle ~src:leaf ~dst in
      match route with
      | [] -> Alcotest.fail "unreachable in a connected map"
      | _ :: rest ->
          let rec check_suffix = function
            | [] -> ()
            | w :: _ as suffix ->
                Alcotest.(check (list int)) "suffix property" suffix
                  (Route_oracle.route oracle ~src:w ~dst);
                check_suffix (List.tl suffix)
          in
          (* Checking the full suffix chain is O(len^2) but routes are short. *)
          check_suffix rest)
    (Array.sub map.leaves 0 10)

let test_oracle_routes_are_shortest () =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 300) ~seed:4 in
  let oracle = Route_oracle.create map.graph in
  let dst = map.core.(1) in
  Array.iter
    (fun leaf ->
      let hops = Route_oracle.route_length oracle ~src:leaf ~dst in
      Alcotest.(check int) "oracle route = BFS distance" (Topology.Bfs.distance map.graph leaf dst) hops)
    (Array.sub map.leaves 0 20)

let test_oracle_next_hop () =
  let d = drawing () in
  let oracle = Route_oracle.create d.graph in
  Alcotest.(check (option int)) "next hop from p1" (Some 4) (Route_oracle.next_hop oracle ~dst:d.lmk d.p1);
  Alcotest.(check (option int)) "at destination" None (Route_oracle.next_hop oracle ~dst:d.lmk d.lmk)

let test_oracle_caching () =
  let d = drawing () in
  let oracle = Route_oracle.create d.graph in
  Alcotest.(check int) "no trees yet" 0 (Route_oracle.cached_destinations oracle);
  ignore (Route_oracle.route oracle ~src:d.p1 ~dst:d.lmk);
  ignore (Route_oracle.route oracle ~src:d.p2 ~dst:d.lmk);
  Alcotest.(check int) "one tree for one destination" 1 (Route_oracle.cached_destinations oracle)

let test_oracle_weighted () =
  (* Weighted oracle must follow the cheap detour. *)
  let g = Topology.Graph.of_edges ~node_count:3 [ (0, 1); (1, 2); (0, 2) ] in
  let weight u v = match (min u v, max u v) with 0, 2 -> 10.0 | _ -> 1.0 in
  let oracle = Route_oracle.create_weighted g ~weight in
  Alcotest.(check (list int)) "detour route" [ 0; 1; 2 ] (Route_oracle.route oracle ~src:0 ~dst:2)

let test_oracle_inflated () =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 300) ~seed:6 in
  Alcotest.check_raises "negative inflation"
    (Invalid_argument "Route_oracle.create_inflated: negative inflation") (fun () ->
      ignore (Route_oracle.create_inflated map.graph ~inflation:(-1.0) ~seed:1));
  let inflated = Route_oracle.create_inflated map.graph ~inflation:3.0 ~seed:2 in
  let dst = map.core.(0) in
  (* Still valid routes: reach the destination, and every consecutive pair
     is a real link (destination-consistency is checked by the sink-tree
     property below). *)
  Array.iter
    (fun leaf ->
      match Route_oracle.route inflated ~src:leaf ~dst with
      | [] -> Alcotest.fail "unreachable"
      | route ->
          Alcotest.(check int) "starts at src" leaf (List.hd route);
          Alcotest.(check int) "ends at dst" dst (List.nth route (List.length route - 1));
          let rec check_links = function
            | a :: (b :: _ as rest) ->
                Alcotest.(check bool) "link exists" true (Topology.Graph.mem_edge map.graph a b);
                check_links rest
            | _ -> ()
          in
          check_links route;
          (* Sink-tree property survives inflation. *)
          (match route with
          | _ :: (w :: _ as suffix) ->
              Alcotest.(check (list int)) "suffix property" suffix
                (Route_oracle.route inflated ~src:w ~dst);
              ignore w
          | _ -> ()))
    (Array.sub map.leaves 0 10);
  (* Deterministic: same seed, same routes. *)
  let again = Route_oracle.create_inflated map.graph ~inflation:3.0 ~seed:2 in
  Alcotest.(check (list int)) "deterministic"
    (Route_oracle.route inflated ~src:map.leaves.(0) ~dst)
    (Route_oracle.route again ~src:map.leaves.(0) ~dst);
  (* Zero inflation = valid shortest routes (same length as BFS). *)
  let zero = Route_oracle.create_inflated map.graph ~inflation:0.0 ~seed:3 in
  Array.iter
    (fun leaf ->
      Alcotest.(check int) "zero inflation is shortest"
        (Topology.Bfs.distance map.graph leaf dst)
        (Route_oracle.route_length zero ~src:leaf ~dst))
    (Array.sub map.leaves 0 10)

let test_probe_perfect () =
  let d = drawing () in
  let oracle = Route_oracle.create d.graph in
  let r = Probe.run oracle ~src:d.p1 ~dst:d.lmk in
  Alcotest.(check bool) "complete" true (Path.is_complete r.path);
  Alcotest.(check (array int)) "records the route" [| d.p1; 4; 5; d.rc; d.ra; d.lmk |]
    (Path.known_routers r.path);
  Alcotest.(check int) "probe packets = hops" 5 r.probes_sent;
  (match r.rtt_ms with
  | Some rtt -> Alcotest.(check (float 1e-9)) "rtt = 2 x 5 hops" 10.0 rtt
  | None -> Alcotest.fail "expected an RTT")

let test_probe_max_ttl () =
  let d = drawing () in
  let oracle = Route_oracle.create d.graph in
  let r = Probe.run ~config:{ Probe.default_config with max_ttl = 2 } oracle ~src:d.p1 ~dst:d.lmk in
  Alcotest.(check bool) "incomplete" false (Path.is_complete r.path);
  Alcotest.(check int) "recorded 2 hops + src" 3 (Array.length r.path.hops);
  Alcotest.(check bool) "no rtt" true (r.rtt_ms = None)

let test_probe_drops () =
  let d = drawing () in
  let oracle = Route_oracle.create d.graph in
  let rng = Prelude.Prng.create 5 in
  (* With 90% drop probability interior hops go anonymous, but src and dst
     always respond. *)
  let r =
    Probe.run
      ~config:{ Probe.default_config with drop_prob = 0.9 }
      ~rng oracle ~src:d.p1 ~dst:d.lmk
  in
  Alcotest.(check bool) "complete (dst replies)" true (Path.is_complete r.path);
  Alcotest.(check bool) "some hops anonymous" true (Path.anonymous_count r.path > 0)

let test_probe_multiprobe_resists_drops () =
  let d = drawing () in
  let oracle = Route_oracle.create d.graph in
  (* With many probes per hop the chance of a fully anonymous hop collapses. *)
  let anonymous probes_per_hop =
    let rng = Prelude.Prng.create 6 in
    let total = ref 0 in
    for _ = 1 to 50 do
      let r =
        Probe.run
          ~config:{ Probe.default_config with drop_prob = 0.5; probes_per_hop }
          ~rng oracle ~src:d.p1 ~dst:d.lmk
      in
      total := !total + Path.anonymous_count r.path
    done;
    !total
  in
  Alcotest.(check bool) "more probes, fewer holes" true (anonymous 5 < anonymous 1)

let test_probe_invalid_config () =
  let d = drawing () in
  let oracle = Route_oracle.create d.graph in
  Alcotest.check_raises "bad ttl" (Invalid_argument "Probe.run: max_ttl must be >= 1") (fun () ->
      ignore (Probe.run ~config:{ Probe.default_config with max_ttl = 0 } oracle ~src:d.p1 ~dst:d.lmk))

let test_ping () =
  let d = drawing () in
  let oracle = Route_oracle.create d.graph in
  Alcotest.(check (float 1e-9)) "hop-count rtt" 10.0 (Probe.ping oracle ~src:d.p1 ~dst:d.lmk);
  let latency = Topology.Latency.assign d.graph Topology.Latency.Hop_count ~seed:1 in
  Alcotest.(check (float 1e-9)) "latency-table rtt" 10.0 (Probe.ping ~latency oracle ~src:d.p1 ~dst:d.lmk);
  let rng = Prelude.Prng.create 7 in
  let noisy = Probe.ping ~rng oracle ~src:d.p1 ~dst:d.lmk in
  Alcotest.(check bool) "noise within 5%" true (abs_float (noisy -. 10.0) <= 0.5 +. 1e-9)

let full_path () = Path.of_routers ~src:0 ~dst:9 [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_truncate_full () =
  let p = full_path () in
  Alcotest.(check bool) "identity" true (Path.equal p (Truncate.apply Truncate.Full p))

let test_truncate_every_k () =
  let p = full_path () in
  let reduced = Truncate.apply (Truncate.Every_k 3) p in
  Alcotest.(check (array int)) "stride 3 plus endpoints" [| 0; 3; 6; 9 |] (Path.known_routers reduced)

let test_truncate_last_k () =
  let p = full_path () in
  let reduced = Truncate.apply (Truncate.Last_k 3) p in
  Alcotest.(check (array int)) "last 3 plus src" [| 0; 7; 8; 9 |] (Path.known_routers reduced)

let test_truncate_first_k () =
  let p = full_path () in
  let reduced = Truncate.apply (Truncate.First_k 3) p in
  Alcotest.(check (array int)) "first 3 plus dst" [| 0; 1; 2; 9 |] (Path.known_routers reduced)

let test_truncate_min_degree () =
  let d = drawing () in
  let oracle = Route_oracle.create d.graph in
  let r = Probe.run oracle ~src:d.p1 ~dst:d.lmk in
  let reduced = Truncate.apply ~graph:d.graph (Truncate.Min_degree 4) r.path in
  (* Core routers rc (degree 4) and ra (degree 4) survive; stubs r1 (3) and
     r2 (2) do not; endpoints always kept. *)
  Alcotest.(check (array int)) "core only" [| d.p1; d.rc; d.ra; d.lmk |] (Path.known_routers reduced);
  Alcotest.check_raises "needs graph" (Invalid_argument "Truncate.apply: Min_degree needs ~graph")
    (fun () -> ignore (Truncate.apply (Truncate.Min_degree 3) r.path))

let test_truncate_degenerate () =
  let single = Path.of_routers ~src:5 ~dst:5 [ 5 ] in
  Alcotest.(check bool) "single hop unchanged" true
    (Path.equal single (Truncate.apply (Truncate.Every_k 4) single));
  let empty = { Path.src = 0; dst = 1; hops = [||] } in
  Alcotest.(check bool) "empty unchanged" true (Path.equal empty (Truncate.apply Truncate.Full empty))

let test_probe_cost () =
  Alcotest.(check int) "full" 9 (Truncate.probe_cost Truncate.Full ~full_hops:9);
  Alcotest.(check int) "every 3 of 9" 3 (Truncate.probe_cost (Truncate.Every_k 3) ~full_hops:9);
  Alcotest.(check int) "every 4 of 9 rounds up" 3 (Truncate.probe_cost (Truncate.Every_k 4) ~full_hops:9);
  Alcotest.(check int) "last 3" 3 (Truncate.probe_cost (Truncate.Last_k 3) ~full_hops:9);
  Alcotest.(check int) "last k > hops" 4 (Truncate.probe_cost (Truncate.Last_k 9) ~full_hops:4);
  Alcotest.(check int) "min degree probes all" 9 (Truncate.probe_cost (Truncate.Min_degree 3) ~full_hops:9);
  Alcotest.(check int) "zero hops" 0 (Truncate.probe_cost Truncate.Full ~full_hops:0)

let test_describe () =
  Alcotest.(check string) "full" "full" (Truncate.describe Truncate.Full);
  Alcotest.(check string) "every" "every-2" (Truncate.describe (Truncate.Every_k 2));
  Alcotest.(check string) "core" "core-deg>=4" (Truncate.describe (Truncate.Min_degree 4))

let qcheck_truncate_keeps_endpoints =
  QCheck.Test.make ~name:"truncate always keeps src and dst hops" ~count:200
    QCheck.(pair (int_range 1 30) (int_range 1 8))
    (fun (len, k) ->
      let routers = List.init (len + 1) (fun i -> i) in
      let p = Path.of_routers ~src:0 ~dst:len routers in
      List.for_all
        (fun strategy ->
          let reduced = Truncate.apply strategy p in
          let known = Path.known_routers reduced in
          Array.length known >= 1 && known.(0) = 0 && known.(Array.length known - 1) = len)
        [ Truncate.Full; Truncate.Every_k k; Truncate.Last_k k; Truncate.First_k k ])

(* The measurement computed the old way, from the route as a list, with
   the route walked hop by hop through [next_hop]. *)
module Reference = struct
  let route oracle ~src ~dst =
    if src = dst then [ src ]
    else
      let rec walk v acc =
        match Route_oracle.next_hop oracle ~dst v with
        | Some next -> walk next (v :: acc)
        | None -> if v = dst then List.rev (v :: acc) else []
      in
      walk src []

  (* Link latencies summed left to right over the route list. *)
  let list_latency table routers =
    let rec sum acc = function
      | a :: (b :: _ as rest) -> sum (acc +. Topology.Latency.get table a b) rest
      | [ _ ] | [] -> acc
    in
    sum 0.0 routers

  let one_way ?latency oracle ~src ~dst =
    match route oracle ~src ~dst with
    | [] -> infinity
    | routers -> (
        match latency with
        | Some table -> list_latency table routers
        | None -> float_of_int (List.length routers - 1))

  let noisy rng v =
    match rng with
    | None -> v
    | Some rng -> v *. (1.0 +. (0.05 *. (Prelude.Prng.unit_float rng -. 0.5) *. 2.0))

  let ping ?latency ?rng oracle ~src ~dst =
    let one_way = one_way ?latency oracle ~src ~dst in
    if one_way = infinity then infinity else noisy rng (2.0 *. one_way)

  let run (config : Probe.config) ?latency ?rng oracle ~src ~dst =
    match route oracle ~src ~dst with
    | [] -> { Probe.path = { Path.src; dst; hops = [||] }; probes_sent = 0; rtt_ms = None }
    | routers ->
        let routers = Array.of_list routers in
        let n_hops = Array.length routers - 1 in
        let recorded = min n_hops config.max_ttl in
        let probes = ref 0 in
        let hops = Array.make (recorded + 1) Path.Anonymous in
        hops.(0) <- Path.Known src;
        for i = 1 to recorded do
          probes := !probes + config.probes_per_hop;
          let router = routers.(i) in
          let responds =
            router = dst || router = src
            ||
            match rng with
            | None -> true
            | Some rng ->
                let rec any k =
                  k > 0 && (Prelude.Prng.unit_float rng >= config.drop_prob || any (k - 1))
                in
                any config.probes_per_hop
          in
          hops.(i) <- (if responds then Path.Known router else Path.Anonymous)
        done;
        let path = { Path.src; dst; hops } in
        let rtt_ms =
          if Path.is_complete path then begin
            let one_way =
              match latency with
              | Some table -> list_latency table (Array.to_list routers)
              | None -> float_of_int n_hops
            in
            Some (noisy rng (2.0 *. one_way))
          end
          else None
        in
        { Probe.path; probes_sent = !probes; rtt_ms }
end

(* The measurement is simulation-identical to the route-list computation:
   same pings, same traces, and the same rng draws in the same order (the
   two rngs end in the same state).  Graphs are random with one isolated
   router, so unreachable pairs occur on every graph; every case also
   probes a router to itself. *)
let qcheck_measurement_identity =
  QCheck.Test.make ~name:"ping and trace match the route-list computation" ~count:300
    QCheck.(quad (int_range 3 24) small_nat (int_range 1 6) bool)
    (fun (n, seed, max_ttl, with_latency) ->
      let g_rng = Prelude.Prng.create seed in
      let edges = ref [] in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 2 do
          if Prelude.Prng.unit_float g_rng < 0.25 then edges := (u, v) :: !edges
        done
      done;
      let g = Topology.Graph.of_edges ~node_count:n !edges in
      let oracle = Route_oracle.create g in
      let latency =
        if with_latency then
          Some (Topology.Latency.assign g (Topology.Latency.Uniform { lo = 1.0; hi = 9.0 }) ~seed)
        else None
      in
      let config = { Probe.max_ttl; drop_prob = 0.3; probes_per_hop = 1 + (seed mod 3) } in
      let pairs =
        (0, 0) :: (0, n - 1) :: (n - 1, 0)
        :: List.init 12 (fun _ -> (Prelude.Prng.int g_rng n, Prelude.Prng.int g_rng n))
      in
      let a = Prelude.Prng.create (seed + 1) and b = Prelude.Prng.create (seed + 1) in
      let same_result (r : Probe.result) (e : Probe.result) =
        Path.equal r.path e.path && r.probes_sent = e.probes_sent && r.rtt_ms = e.rtt_ms
      in
      List.for_all
        (fun (src, dst) ->
          Probe.ping ?latency ~rng:a oracle ~src ~dst = Reference.ping ?latency ~rng:b oracle ~src ~dst
          && Probe.ping ?latency oracle ~src ~dst = Reference.ping ?latency oracle ~src ~dst
          && same_result
               (Probe.run ~config ?latency ~rng:a oracle ~src ~dst)
               (Reference.run config ?latency ~rng:b oracle ~src ~dst)
          && same_result (Probe.run ~config oracle ~src ~dst) (Reference.run config oracle ~src ~dst))
        pairs
      && Prelude.Prng.bits64 a = Prelude.Prng.bits64 b)

(* Every oracle reads a route's length off its sink tree's depth array:
   the length must be the route's link count, [max_int] exactly when
   there is no route, 0 to itself, and free once the tree is built.  The
   route itself must follow the parent array link by link to [dst], so
   the depths are checked against the parents, not against themselves.
   Graphs are random with one isolated router, so every graph is
   disconnected; the bounded oracle holds two trees and keeps evicting. *)
let qcheck_route_length_is_tree_depth =
  QCheck.Test.make ~name:"route_length is the sink tree's depth, for every oracle" ~count:100
    QCheck.(pair (int_range 3 24) small_nat)
    (fun (n, seed) ->
      let g_rng = Prelude.Prng.create (seed + 11) in
      let edges = ref [] in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 2 do
          if Prelude.Prng.unit_float g_rng < 0.25 then edges := (u, v) :: !edges
        done
      done;
      let g = Topology.Graph.of_edges ~node_count:n !edges in
      let table = Topology.Latency.assign g (Topology.Latency.Uniform { lo = 1.0; hi = 9.0 }) ~seed in
      let oracles =
        [
          Route_oracle.create g;
          Route_oracle.create_weighted g ~weight:(Topology.Latency.weight_fn table);
          Route_oracle.create_inflated g ~inflation:(float_of_int (seed mod 4)) ~seed;
          Route_oracle.create ~max_cached_trees:2 g;
        ]
      in
      let consistent oracle ~src ~dst =
        let len = Route_oracle.route_length oracle ~src ~dst in
        let route = Route_oracle.route_array oracle ~src ~dst in
        let follows_tree () =
          let last = Array.length route - 1 in
          route.(0) = src
          && route.(last) = dst
          && List.for_all
               (fun i -> Route_oracle.next_hop oracle ~dst route.(i) = Some route.(i + 1))
               (List.init last Fun.id)
        in
        if src = dst then len = 0 && route = [| src |]
        else if len = max_int then route = [||]
        else route <> [||] && len = Array.length route - 1 && follows_tree ()
      in
      (* Once [dst]'s tree is built, asking for any source's length
         allocates nothing (a boxed float for the counter reads aside). *)
      let free oracle ~dst =
        ignore (Route_oracle.route_length oracle ~src:((dst + 1) mod n) ~dst);
        let before = Gc.minor_words () in
        for src = 0 to n - 1 do
          ignore (Sys.opaque_identity (Route_oracle.route_length oracle ~src ~dst))
        done;
        Gc.minor_words () -. before <= 4.0
      in
      List.for_all
        (fun oracle ->
          List.for_all
            (fun dst ->
              free oracle ~dst
              && List.for_all (fun src -> consistent oracle ~src ~dst) (List.init n Fun.id))
            (List.init n Fun.id))
        oracles)

let suite =
  let q t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t in
  ( "traceroute",
    [
      Alcotest.test_case "path of_routers" `Quick test_path_of_routers;
      Alcotest.test_case "path anonymous" `Quick test_path_anonymous;
      Alcotest.test_case "path pp/equal" `Quick test_path_pp_equal;
      Alcotest.test_case "oracle routes" `Quick test_oracle_routes;
      Alcotest.test_case "oracle sink-tree property" `Quick test_oracle_sink_tree_property;
      Alcotest.test_case "oracle routes are shortest" `Quick test_oracle_routes_are_shortest;
      Alcotest.test_case "oracle next hop" `Quick test_oracle_next_hop;
      Alcotest.test_case "oracle caching" `Quick test_oracle_caching;
      Alcotest.test_case "oracle weighted" `Quick test_oracle_weighted;
      Alcotest.test_case "oracle inflated" `Quick test_oracle_inflated;
      Alcotest.test_case "probe perfect" `Quick test_probe_perfect;
      Alcotest.test_case "probe max ttl" `Quick test_probe_max_ttl;
      Alcotest.test_case "probe drops" `Quick test_probe_drops;
      Alcotest.test_case "probe multi-probe" `Quick test_probe_multiprobe_resists_drops;
      Alcotest.test_case "probe invalid config" `Quick test_probe_invalid_config;
      Alcotest.test_case "ping" `Quick test_ping;
      Alcotest.test_case "truncate full" `Quick test_truncate_full;
      Alcotest.test_case "truncate every-k" `Quick test_truncate_every_k;
      Alcotest.test_case "truncate last-k" `Quick test_truncate_last_k;
      Alcotest.test_case "truncate first-k" `Quick test_truncate_first_k;
      Alcotest.test_case "truncate min-degree" `Quick test_truncate_min_degree;
      Alcotest.test_case "truncate degenerate" `Quick test_truncate_degenerate;
      Alcotest.test_case "probe cost" `Quick test_probe_cost;
      Alcotest.test_case "describe" `Quick test_describe;
      q qcheck_truncate_keeps_endpoints;
      q qcheck_measurement_identity;
      q qcheck_route_length_is_tree_depth;
    ] )
