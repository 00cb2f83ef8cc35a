(* Path_tree: the paper's core data structure. *)

open Nearby

let lmk = 100

(* Paths mirroring the paper drawing: peers meeting at router 3 (the "rc"). *)
let path_a = [| 10; 11; 3; 2; lmk |] (* peer at distance 2 from the meeting router *)
let path_b = [| 20; 21; 3; 2; lmk |]
let path_c = [| 30; 2; lmk |] (* meets a/b only at router 2 *)

let populated () =
  let t = Path_tree.create ~landmark:lmk in
  Path_tree.insert t ~peer:0 ~routers:path_a;
  Path_tree.insert t ~peer:1 ~routers:path_b;
  Path_tree.insert t ~peer:2 ~routers:path_c;
  t

let test_basic_accessors () =
  let t = populated () in
  Alcotest.(check int) "landmark" lmk (Path_tree.landmark t);
  Alcotest.(check int) "members" 3 (Path_tree.member_count t);
  Alcotest.(check bool) "mem" true (Path_tree.mem t 0);
  Alcotest.(check bool) "not mem" false (Path_tree.mem t 9);
  Alcotest.(check (option int)) "depth a" (Some 4) (Path_tree.depth t 0);
  Alcotest.(check (option int)) "depth c" (Some 2) (Path_tree.depth t 2);
  Alcotest.(check (option (array int))) "path_of" (Some path_a) (Path_tree.path_of t 0);
  Alcotest.(check bool)
    "path_of returns the stored routers" true
    (Option.get (Path_tree.path_of t 0) == Option.get (Path_tree.path_of t 0));
  (* Distinct routers: 10 11 3 2 100 20 21 30 = 8. *)
  Alcotest.(check int) "router count" 8 (Path_tree.router_count t)

let test_insert_validation () =
  let t = populated () in
  Alcotest.check_raises "empty path" (Invalid_argument "Path_tree.insert: empty path") (fun () ->
      Path_tree.insert t ~peer:9 ~routers:[||]);
  Alcotest.check_raises "wrong landmark"
    (Invalid_argument "Path_tree.insert: path must end at the landmark") (fun () ->
      Path_tree.insert t ~peer:9 ~routers:[| 1; 2 |]);
  Alcotest.check_raises "duplicate peer" (Invalid_argument "Path_tree.insert: peer already registered")
    (fun () -> Path_tree.insert t ~peer:0 ~routers:path_a)

let test_negative_router_rejected () =
  let t = populated () in
  Alcotest.check_raises "negative router" (Invalid_argument "Path_tree.insert: negative router")
    (fun () -> Path_tree.insert t ~peer:9 ~routers:[| 10; -3; lmk |]);
  Alcotest.(check bool) "not registered" false (Path_tree.mem t 9);
  Alcotest.(check int) "routers unchanged" 8 (Path_tree.router_count t);
  Path_tree.check_invariants t

let test_meeting_point () =
  let t = populated () in
  (match Path_tree.meeting_point t 0 1 with
  | Some (router, d1, d2) ->
      Alcotest.(check int) "meeting router" 3 router;
      Alcotest.(check int) "distance a" 2 d1;
      Alcotest.(check int) "distance b" 2 d2
  | None -> Alcotest.fail "expected a meeting point");
  (match Path_tree.meeting_point t 0 2 with
  | Some (router, d1, d2) ->
      Alcotest.(check int) "meets c at 2" 2 router;
      Alcotest.(check int) "a to 2" 3 d1;
      Alcotest.(check int) "c to 2" 1 d2
  | None -> Alcotest.fail "expected a meeting point");
  Alcotest.(check bool) "unknown peer" true (Path_tree.meeting_point t 0 9 = None)

let test_meeting_point_symmetry () =
  let t = populated () in
  match (Path_tree.meeting_point t 0 1, Path_tree.meeting_point t 1 0) with
  | Some (r, d1, d2), Some (r', d1', d2') ->
      Alcotest.(check int) "router" r r';
      Alcotest.(check int) "swapped distances" d1 d2';
      Alcotest.(check int) "swapped distances 2" d2 d1'
  | _ -> Alcotest.fail "expected meeting points"

let test_dtree () =
  let t = populated () in
  Alcotest.(check (option int)) "dtree a b" (Some 4) (Path_tree.dtree t 0 1);
  Alcotest.(check (option int)) "dtree a c" (Some 4) (Path_tree.dtree t 0 2);
  Alcotest.(check (option int)) "dtree b c" (Some 4) (Path_tree.dtree t 1 2);
  Alcotest.(check (option int)) "self" (Some 0) (Path_tree.dtree t 0 0);
  Alcotest.(check (option int)) "missing" None (Path_tree.dtree t 0 42)

let test_same_attach_router () =
  let t = Path_tree.create ~landmark:lmk in
  Path_tree.insert t ~peer:0 ~routers:[| 5; 6; lmk |];
  Path_tree.insert t ~peer:1 ~routers:[| 5; 6; lmk |];
  Alcotest.(check (option int)) "colocated peers" (Some 0) (Path_tree.dtree t 0 1)

let test_query_basic () =
  let t = populated () in
  Alcotest.(check (list (pair int int))) "query for a" [ (1, 4); (2, 4) ]
    (Path_tree.query_member t ~peer:0 ~k:5);
  Alcotest.(check (list (pair int int))) "k = 1" [ (1, 4) ] (Path_tree.query_member t ~peer:0 ~k:1);
  Alcotest.(check (list (pair int int))) "k = 0" [] (Path_tree.query t ~routers:path_a ~k:0 ())

let test_query_excludes_self_only_with_member () =
  let t = populated () in
  let all = Path_tree.query t ~routers:path_a ~k:5 () in
  (* Unregistered query with peer 0's path sees peer 0 at distance 0. *)
  Alcotest.(check (list (pair int int))) "includes the registered twin" [ (0, 0); (1, 4); (2, 4) ] all

let test_query_exclude_predicate () =
  let t = populated () in
  let result = Path_tree.query t ~routers:path_a ~k:5 ~exclude:(fun p -> p = 0 || p = 1) () in
  Alcotest.(check (list (pair int int))) "filtered" [ (2, 4) ] result

let test_query_newcomer_path () =
  let t = populated () in
  (* A newcomer attaching under router 11 (on peer 0's path). *)
  let newcomer = [| 40; 11; 3; 2; lmk |] in
  let result = Path_tree.query t ~routers:newcomer ~k:2 () in
  (* Meets peer 0 at router 11 (1 + 1 hops) and peer 1 only at router 3
     (2 + 2 hops). *)
  Alcotest.(check (list (pair int int))) "closest is peer 0 via router 11" [ (0, 2); (1, 4) ] result

let test_query_missing_member () =
  let t = populated () in
  Alcotest.check_raises "unregistered" Not_found (fun () ->
      ignore (Path_tree.query_member t ~peer:77 ~k:3))

let test_remove () =
  let t = populated () in
  Path_tree.remove t 1;
  Alcotest.(check int) "members" 2 (Path_tree.member_count t);
  Alcotest.(check bool) "gone" false (Path_tree.mem t 1);
  Alcotest.(check (list (pair int int))) "query no longer sees it" [ (2, 4) ]
    (Path_tree.query_member t ~peer:0 ~k:5);
  Path_tree.check_invariants t;
  (* Router 20/21 buckets disappeared. *)
  Alcotest.(check int) "routers shrunk" 6 (Path_tree.router_count t);
  Alcotest.check_raises "double remove" Not_found (fun () -> Path_tree.remove t 1)

(* The member a replica can complete a route from: the head of the
   router's bucket, nearest first, ties to the lower id, never [except]. *)
let test_member_through () =
  let t = populated () in
  let through router ~except = Path_tree.member_through t router ~except in
  Alcotest.(check int) "router 3: nearest, lower id" 0 (through 3 ~except:(-1));
  Alcotest.(check int) "router 3 except 0" 1 (through 3 ~except:0);
  Alcotest.(check int) "router 2: the peer one hop away" 2 (through 2 ~except:0);
  Alcotest.(check int) "router 2 except 2" 0 (through 2 ~except:2);
  Alcotest.(check int) "router 10 holds only peer 0" (-1) (through 10 ~except:0);
  Alcotest.(check int) "unknown router" (-1) (through 999 ~except:(-1));
  Alcotest.(check int) "negative router" (-1) (through (-1) ~except:(-1));
  (* A router repeated in one path puts two of its entries in the bucket,
     with another member's entry between them. *)
  Path_tree.insert t ~peer:5 ~routers:[| 7; 8; 7; lmk |];
  Alcotest.(check int) "repeat only" (-1) (through 7 ~except:5);
  Path_tree.insert t ~peer:6 ~routers:[| 50; 7; lmk |];
  Alcotest.(check int) "past both of its entries" 6 (through 7 ~except:5);
  Path_tree.remove t 0;
  Alcotest.(check int) "a removed member is gone" 1 (through 3 ~except:(-1));
  (* The naive scan has no router index; the timing wrapper forwards. *)
  let naive = Naive_registry.create ~landmark:lmk in
  Naive_registry.insert naive ~peer:0 ~routers:path_a;
  Alcotest.(check int) "naive" (-1) (Naive_registry.member_through naive 3 ~except:(-1));
  let module W =
    (val Instrumented_registry.wrap ~metrics:(Simkit.Trace.create ()) (module Path_tree))
  in
  let w = W.create ~landmark:lmk in
  W.insert w ~peer:4 ~routers:path_b;
  Alcotest.(check int) "instrumented" 4 (W.member_through w 21 ~except:(-1))

let test_invariants_detect_nothing_on_good_tree () =
  Path_tree.check_invariants (populated ())

let test_truncated_path_registration () =
  let t = Path_tree.create ~landmark:lmk in
  (* A decreased traceroute that only kept the attachment, one mid router
     and the landmark. *)
  Path_tree.insert t ~peer:0 ~routers:[| 10; 3; lmk |];
  Path_tree.insert t ~peer:1 ~routers:[| 20; 3; lmk |];
  Alcotest.(check (option int)) "approximate dtree" (Some 2) (Path_tree.dtree t 0 1)

let test_iter_members () =
  let t = populated () in
  let seen = ref [] in
  Path_tree.iter_members t (fun p -> seen := p :: !seen);
  Alcotest.(check (list int)) "all members" [ 0; 1; 2 ] (List.sort compare !seen)

(* Brute-force reference: dtree between a query path and every member, via
   first-common-router scan. *)
let reference_query t ~paths ~routers ~k =
  let dtree_of path =
    let len_q = Array.length routers and len_p = Array.length path in
    let rec suffix j =
      if j < min len_q len_p && routers.(len_q - 1 - j) = path.(len_p - 1 - j) then suffix (j + 1)
      else j
    in
    let j = suffix 0 in
    if j = 0 then None else Some (len_q - j + (len_p - j))
  in
  ignore t;
  let candidates =
    List.filter_map
      (fun (peer, path) -> match dtree_of path with Some d -> Some (d, peer) | None -> None)
      paths
  in
  List.filteri (fun i _ -> i < k) (List.sort compare candidates)
  |> List.map (fun (d, p) -> (p, d))

let qcheck_query_matches_bruteforce =
  (* Random sink-tree-consistent paths: build a random tree over routers
     rooted at the landmark, peers attach at random routers. *)
  QCheck.Test.make ~name:"query = brute force over registered members" ~count:100
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n_peers) ->
      let rng = Prelude.Prng.create seed in
      let n_routers = 30 in
      (* parent.(r) for r > 0 is a random router with smaller id; router 0 is
         the landmark. *)
      let parent = Array.init n_routers (fun r -> if r = 0 then -1 else Prelude.Prng.int rng r) in
      let path_from r =
        let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
        Array.of_list (climb r [])
      in
      let t = Path_tree.create ~landmark:0 in
      let paths = ref [] in
      for peer = 0 to n_peers - 1 do
        let attach = Prelude.Prng.int rng n_routers in
        let path = path_from attach in
        Path_tree.insert t ~peer ~routers:path;
        paths := (peer, path) :: !paths
      done;
      Path_tree.check_invariants t;
      (* Query with a fresh random attachment. *)
      let q_path = path_from (Prelude.Prng.int rng n_routers) in
      let k = 1 + Prelude.Prng.int rng 5 in
      let got = Path_tree.query t ~routers:q_path ~k () in
      let want = reference_query t ~paths:!paths ~routers:q_path ~k in
      got = want)

let qcheck_insert_remove_roundtrip =
  QCheck.Test.make ~name:"insert then remove restores the tree" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let rng = Prelude.Prng.create seed in
      let t = populated () in
      let before = List.sort compare (Path_tree.query_member t ~peer:0 ~k:10) in
      let extra_path = [| 50 + Prelude.Prng.int rng 10; 3; 2; lmk |] in
      Path_tree.insert t ~peer:99 ~routers:extra_path;
      Path_tree.check_invariants t;
      Path_tree.remove t 99;
      Path_tree.check_invariants t;
      List.sort compare (Path_tree.query_member t ~peer:0 ~k:10) = before
      && not (Path_tree.mem t 99))

(* --- Naive registry: same answers, different asymptotics --- *)

let test_naive_matches_on_fixture () =
  let t = populated () in
  let naive = Naive_registry.create ~landmark:lmk in
  List.iter
    (fun (peer, routers) -> Naive_registry.insert naive ~peer ~routers)
    [ (0, path_a); (1, path_b); (2, path_c) ];
  Alcotest.(check (option int)) "dtree agrees" (Path_tree.dtree t 0 1) (Naive_registry.dtree naive 0 1);
  for peer = 0 to 2 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "query for %d agrees" peer)
      (Path_tree.query_member t ~peer ~k:5)
      (Naive_registry.query_member naive ~peer ~k:5)
  done;
  Alcotest.(check int) "member count" 3 (Naive_registry.member_count naive);
  Naive_registry.remove naive 0;
  Alcotest.check_raises "removed" Not_found (fun () ->
      ignore (Naive_registry.query_member naive ~peer:0 ~k:1))

let qcheck_naive_equivalence =
  QCheck.Test.make ~name:"naive registry = path tree on random sink trees" ~count:100
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, n_peers) ->
      let rng = Prelude.Prng.create (seed + 777) in
      let n_routers = 25 in
      let parent = Array.init n_routers (fun r -> if r = 0 then -1 else Prelude.Prng.int rng r) in
      let path_from r =
        let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
        Array.of_list (climb r [])
      in
      let t = Path_tree.create ~landmark:0 in
      let naive = Naive_registry.create ~landmark:0 in
      for peer = 0 to n_peers - 1 do
        let path = path_from (Prelude.Prng.int rng n_routers) in
        Path_tree.insert t ~peer ~routers:path;
        Naive_registry.insert naive ~peer ~routers:path
      done;
      let q_path = path_from (Prelude.Prng.int rng n_routers) in
      let k = 1 + Prelude.Prng.int rng 6 in
      Path_tree.query t ~routers:q_path ~k () = Naive_registry.query naive ~routers:q_path ~k ())

(* Router ids spread over [0, 5000): the router index grows to the largest
   id named and holds empty slots between them.  Each step inserts,
   removes or queries; after every step the tree answers as the naive
   scan does, counts exactly the routers some registered path crosses
   (so the count drops as routers empty), and passes its invariants. *)
let qcheck_sparse_routers_match_naive =
  QCheck.Test.make ~name:"sparse router ids: path tree = naive, step by step" ~count:100
    QCheck.(pair small_nat (int_range 1 80))
    (fun (seed, steps) ->
      let rng = Prelude.Prng.create (seed + 4242) in
      let n_nodes = 40 in
      (* A random sink tree on 40 nodes, relabelled with distinct ids in
         [0, 5000); node 0 is the landmark. *)
      let ids = Array.make n_nodes 0 and used = Hashtbl.create 64 in
      for i = 0 to n_nodes - 1 do
        let rec fresh () =
          let id = Prelude.Prng.int rng 5000 in
          if Hashtbl.mem used id then fresh () else id
        in
        let id = fresh () in
        Hashtbl.add used id ();
        ids.(i) <- id
      done;
      let parent = Array.init n_nodes (fun r -> if r = 0 then -1 else Prelude.Prng.int rng r) in
      let path_from r =
        let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
        Array.of_list (List.map (fun node -> ids.(node)) (climb r []))
      in
      let landmark = ids.(0) in
      let t = Path_tree.create ~landmark and naive = Naive_registry.create ~landmark in
      let members = ref [] and next = ref 0 in
      let distinct_routers () =
        let seen = Hashtbl.create 64 in
        Naive_registry.iter_members naive (fun p ->
            Array.iter
              (fun r -> Hashtbl.replace seen r ())
              (Option.get (Naive_registry.path_of naive p)));
        Hashtbl.length seen
      in
      let ok = ref true in
      for _ = 1 to steps do
        (match Prelude.Prng.int rng 3 with
        | 0 | 1 when !members = [] || Prelude.Prng.int rng 3 > 0 ->
            let peer = !next and routers = path_from (Prelude.Prng.int rng n_nodes) in
            incr next;
            Path_tree.insert t ~peer ~routers;
            Naive_registry.insert naive ~peer ~routers;
            members := peer :: !members
        | 0 | 1 ->
            let peer = List.nth !members (Prelude.Prng.int rng (List.length !members)) in
            Path_tree.remove t peer;
            Naive_registry.remove naive peer;
            members := List.filter (( <> ) peer) !members
        | _ ->
            let routers = path_from (Prelude.Prng.int rng n_nodes) in
            let k = 1 + Prelude.Prng.int rng 6 in
            if Path_tree.query t ~routers ~k () <> Naive_registry.query naive ~routers ~k () then
              ok := false);
        Path_tree.check_invariants t;
        if Path_tree.router_count t <> distinct_routers () then ok := false;
        List.iter
          (fun peer ->
            if Path_tree.query_member t ~peer ~k:3 <> Naive_registry.query_member naive ~peer ~k:3
            then ok := false)
          !members
      done;
      !ok)

(* A registered hop path stores its routers and shares the one positions
   array for its costs: an insert whose buckets all have room allocates
   the router copy, the path record and the table binding, and no cost
   array (which would add another [1 + length] words). *)
let test_insert_allocates_no_cost_array () =
  let len = 64 in
  let routers = Array.init len (fun i -> if i = len - 1 then 0 else 1000 + i) in
  let t = Path_tree.create ~landmark:0 in
  (* Nine members put every router's bucket in a 16-slot chunk, so the
     tenth insert grows nothing. *)
  for peer = 0 to 8 do
    Path_tree.insert t ~peer ~routers
  done;
  let before = Gc.minor_words () in
  Path_tree.insert t ~peer:9 ~routers;
  let words = Gc.minor_words () -. before in
  Path_tree.check_invariants t;
  Alcotest.(check bool)
    (Printf.sprintf "a %d-router insert allocates %.0f words" len words)
    true
    (words <= float_of_int (len + 16))

(* --- One stored route per distinct route --- *)

let stored t peer = Option.get (Path_tree.path_of t peer)

(* Members on one router with one route share the stored array; a
   different route from that router, or a route starting inside another
   member's route, gets its own. *)
let test_equal_routes_share_one_array () =
  let t = Path_tree.create ~landmark:lmk in
  Path_tree.insert t ~peer:0 ~routers:(Array.copy path_a);
  Path_tree.insert t ~peer:1 ~routers:(Array.copy path_a);
  Alcotest.(check bool) "equal routes share one array" true (stored t 0 == stored t 1);
  Path_tree.insert t ~peer:2 ~routers:[| 10; 12; 3; 2; lmk |];
  Alcotest.(check bool) "a different route from the same router" false (stored t 2 == stored t 0);
  Alcotest.(check (array int)) "its own route" [| 10; 12; 3; 2; lmk |] (stored t 2);
  (* Router 11 lies inside peers 0 and 1's route; peer 3 starts there. *)
  Path_tree.insert t ~peer:3 ~routers:[| 11; 3; 2; lmk |];
  Alcotest.(check (array int)) "a route starting mid-route" [| 11; 3; 2; lmk |] (stored t 3);
  Alcotest.(check (array int)) "the route it starts inside" path_a (stored t 0);
  (* Peer 3 now heads router 11's bucket: the next equal route shares it. *)
  Path_tree.insert t ~peer:4 ~routers:[| 11; 3; 2; lmk |];
  Alcotest.(check bool) "shares with the member starting there" true (stored t 4 == stored t 3);
  Path_tree.check_invariants t

(* Removing the member whose route others share (the head of their first
   router's bucket) leaves them their route, their answers and their
   meeting points; the next equal route shares again. *)
let test_remove_bucket_head_keeps_shared_route () =
  let t = Path_tree.create ~landmark:lmk in
  List.iter (fun peer -> Path_tree.insert t ~peer ~routers:(Array.copy path_a)) [ 0; 1; 2 ];
  Path_tree.insert t ~peer:3 ~routers:path_b;
  Alcotest.(check int) "peer 0 heads router 10" 0 (Path_tree.member_through t 10 ~except:(-1));
  Path_tree.remove t 0;
  Path_tree.check_invariants t;
  Alcotest.(check (array int)) "route kept" path_a (stored t 1);
  Alcotest.(check bool) "still one array" true (stored t 1 == stored t 2);
  Alcotest.(check (list (pair int int))) "query_member" [ (2, 0); (3, 4) ]
    (Path_tree.query_member t ~peer:1 ~k:3);
  Alcotest.(check (option (triple int int int))) "meeting point" (Some (3, 2, 2))
    (Path_tree.meeting_point t 1 3);
  Alcotest.(check (option int)) "dtree" (Some 0) (Path_tree.dtree t 1 2);
  Path_tree.insert t ~peer:5 ~routers:(Array.copy path_a);
  Alcotest.(check bool) "the next insert shares again" true (stored t 5 == stored t 1);
  Path_tree.check_invariants t

(* The tree never keeps the array it is given: writing into it after the
   insert, whether that insert copied it or shared an older route, leaves
   every stored route as it was. *)
let test_caller_array_not_kept () =
  let t = Path_tree.create ~landmark:lmk in
  let first = [| 40; 3; 2; lmk |] and second = [| 40; 3; 2; lmk |] in
  Path_tree.insert t ~peer:0 ~routers:first;
  Path_tree.insert t ~peer:1 ~routers:second;
  first.(0) <- 41;
  second.(1) <- 4;
  Alcotest.(check (array int)) "first route" [| 40; 3; 2; lmk |] (stored t 0);
  Alcotest.(check (array int)) "second route" [| 40; 3; 2; lmk |] (stored t 1);
  Path_tree.check_invariants t

(* Each distinct route counts once in the payload estimate.  Eight
   members on one router sequence either share one route (equal costs) or
   hold eight (each a different last cost): the bucket layout is the
   same, so the estimates differ by exactly seven routes, each a record
   (3 words) and a 5-router array (1 + 5). *)
let test_approx_bytes_counts_shared_route_once () =
  let bytes costs_of =
    let t = Path_tree_core.create ~landmark:lmk in
    for peer = 0 to 7 do
      Path_tree_core.insert_path t ~peer ~routers:path_a ~costs:(costs_of peer)
    done;
    Path_tree_core.check_invariants t;
    Path_tree_core.approx_bytes t
  in
  let shared = bytes (fun _ -> [| 0; 1; 2; 3; 4 |]) in
  let own = bytes (fun peer -> [| 0; 1; 2; 3; 4 + peer |]) in
  Alcotest.(check int) "seven routes more" (7 * (3 + 1 + 5) * 8) (own - shared)

(* --- Batch insert = looped singletons, down to the layout --- *)

(* What a tree looks like from outside: payload estimate, every member's
   stored path (members ascending) and introspection.  Two trees agreeing
   on it, and on every member's answer, hold the same entries in the same
   chunk capacities. *)
let layout t =
  let i = Path_tree.introspect t in
  let members = ref [] in
  Path_tree.iter_members t (fun p -> members := p :: !members);
  let paths =
    List.map
      (fun p ->
        Printf.sprintf "%d:%s" p
          (String.concat "."
             (List.map string_of_int (Array.to_list (Option.get (Path_tree.path_of t p))))))
      (List.sort Int.compare !members)
  in
  Printf.sprintf "bytes=%d paths=%s %s" i.approx_bytes (String.concat "," paths)
    (Registry_intf.introspection_json i)

let answer t ~peer =
  String.concat ","
    (List.map (fun (p, d) -> Printf.sprintf "%d:%d" p d) (Path_tree.query_member t ~peer ~k:5))

(* Random members on a random sink tree, registered through the derived
   [insert_many] in sub-batches of 1-64 with a few removes after each; the
   batched tree and the looped one must be indistinguishable after every
   step.  Up to 700 members, so the landmark bucket also splits past its
   256-entry chunk. *)
let qcheck_batch_layout =
  QCheck.Test.make ~name:"path_tree: insert_many builds the looped-insert tree" ~count:25
    QCheck.(pair small_int (int_range 1 700))
    (fun (seed, n_peers) ->
      let rng = Prelude.Prng.create (seed + 4242) in
      let n_routers = 60 in
      let parent = Array.init n_routers (fun r -> if r = 0 then -1 else Prelude.Prng.int rng r) in
      let path_from r =
        let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
        Array.of_list (climb r [])
      in
      let batched = Path_tree.create ~landmark:0 and looped = Path_tree.create ~landmark:0 in
      let live = ref [] in
      let next = ref 0 in
      while !next < n_peers do
        let size = min (1 + Prelude.Prng.int rng 64) (n_peers - !next) in
        let batch =
          Array.init size (fun i -> (!next + i, path_from (Prelude.Prng.int rng n_routers)))
        in
        next := !next + size;
        Path_tree.insert_many batched batch;
        Array.iter (fun (peer, routers) -> Path_tree.insert looped ~peer ~routers) batch;
        live := List.rev_append (Array.to_list (Array.map fst batch)) !live;
        for _ = 1 to Prelude.Prng.int rng 4 do
          match !live with
          | [] -> ()
          | members ->
              let victim = List.nth members (Prelude.Prng.int rng (List.length members)) in
              Path_tree.remove batched victim;
              Path_tree.remove looped victim;
              live := List.filter (fun p -> p <> victim) members
        done;
        Path_tree.check_invariants batched;
        Path_tree.check_invariants looped;
        let fingerprint t = layout t :: List.map (fun peer -> answer t ~peer) (List.sort compare !live) in
        Alcotest.(check (list string))
          (Printf.sprintf "after %d registrations" !next)
          (fingerprint looped) (fingerprint batched)
      done;
      true)

(* A small batch costs what its singletons cost: the derived batch adds
   only its up-front check, a constant few dozen words. *)
let test_batch_allocates_like_singletons () =
  let rng = Prelude.Prng.create 31 in
  let n_routers = 200 in
  let parent = Array.init n_routers (fun r -> if r = 0 then -1 else Prelude.Prng.int rng r) in
  let path_from r =
    let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
    Array.of_list (climb r [])
  in
  let population = Array.init 2000 (fun peer -> (peer, path_from (Prelude.Prng.int rng n_routers))) in
  let batched = Path_tree.create ~landmark:0 and looped = Path_tree.create ~landmark:0 in
  Path_tree.insert_many batched population;
  Path_tree.insert_many looped population;
  let entries = Array.init 4 (fun i -> (2000 + i, path_from (Prelude.Prng.int rng n_routers))) in
  let insert (peer, routers) = Path_tree.insert looped ~peer ~routers in
  let before = Gc.minor_words () in
  Path_tree.insert_many batched entries;
  let batch_words = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  Array.iter insert entries;
  let loop_words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "4-entry batch %.0f words vs 4 inserts %.0f" batch_words loop_words)
    true
    (batch_words <= loop_words +. 64.0)

(* A member query reads the member's stored path in place, keeps no
   seen-table and takes the domain's selector: what it allocates is the
   answer, a pair and a cons per neighbor, nothing per bucket entry. *)
let test_query_member_allocation () =
  let rng = Prelude.Prng.create 37 in
  let n_routers = 200 in
  let parent = Array.init n_routers (fun r -> if r = 0 then -1 else Prelude.Prng.int rng r) in
  let path_from r =
    let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
    Array.of_list (climb r [])
  in
  let t = Path_tree.create ~landmark:0 in
  for peer = 0 to 1_999 do
    Path_tree.insert t ~peer ~routers:(path_from (Prelude.Prng.int rng n_routers))
  done;
  let k = 5 and queries = 200 in
  ignore (Path_tree.query_member t ~peer:0 ~k);
  let returned = ref 0 in
  let before = Gc.minor_words () in
  for peer = 0 to queries - 1 do
    returned := !returned + List.length (Path_tree.query_member t ~peer ~k)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "full answers" (k * queries) !returned;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "words over %d k=%d member queries" queries k)
    (float_of_int (6 * !returned))
    words

(* One member query allocates the answer (a pair and a cons per
   neighbor) and nothing per scanned entry: the same words per neighbor
   over a 1-entry hub bucket as over a 4096-entry one. *)
let test_query_member_words_flat_in_bucket_size () =
  let k = 8 in
  List.iter
    (fun bucket ->
      let hub = 1 and lmk = 0 in
      let t = Path_tree.create ~landmark:lmk in
      for peer = 0 to bucket - 1 do
        Path_tree.insert t ~peer ~routers:[| 10 + peer; hub; lmk |]
      done;
      ignore (Path_tree.query_member t ~peer:0 ~k);
      let before = Gc.minor_words () in
      let answer = Path_tree.query_member t ~peer:0 ~k in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) "answer size" (min k (bucket - 1)) (List.length answer);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "words at bucket size %d, k=%d" bucket k)
        (float_of_int (6 * List.length answer))
        words)
    [ 1; 2; 16; 256; 4096 ]

(* The selector keeps exactly what sorting every offer and taking the
   first k keeps, cost ties broken to the lower peer id, at both ends of
   the peer range. *)
let qcheck_topk_is_sort_and_take =
  let top_peer = Topk.peer_limit - 1 in
  let peer = QCheck.Gen.(frequency [ (1, return 0); (1, return top_peer); (6, int_bound 1000) ]) in
  let offer = QCheck.Gen.(pair (int_bound 5) peer) in
  QCheck.Test.make ~name:"topk: k smallest = sort all offers, take k" ~count:500
    QCheck.(pair (int_range 0 12) (make ~print:Print.(list (pair int int)) Gen.(list_size (int_bound 40) offer)))
    (fun (k, offers) ->
      (* One offer per peer, as every caller guarantees. *)
      let offers = List.sort_uniq (fun (_, p1) (_, p2) -> compare p1 p2) offers in
      let best = Topk.shared ~k in
      List.iter (fun (cost, peer) -> Topk.offer best (Topk.pack ~cost ~peer)) offers;
      let expected =
        List.sort compare offers |> List.filteri (fun i _ -> i < k) |> List.map (fun (c, p) -> (p, c))
      in
      Topk.drain best = expected && Topk.drain best = [])

(* --- Chunk placement: a full chunk splits where inserts land --- *)

let hop_costs = Array.init 16 Fun.id

(* A sink tree of 12 routers toward landmark 0, attach routers at depths
   1-4: the landmark's and the inner routers' buckets hold several cost
   groups each, and past 256 entries they split. *)
let placement_parent = [| -1; 0; 0; 1; 1; 2; 3; 3; 4; 5; 6; 8 |]

let placement_path r =
  let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb placement_parent.(r) (r :: acc) in
  Array.of_list (climb r [])

type placement_op = Add of int * int | Drop of int

(* Grow to [n] members, churn (half inserts, half removes), then remove
   four in five of those left: splits, shifts and merges all happen.  New
   ids ascend, descend or come in random order. *)
let placement_ops ~order ~seed ~n =
  let rng = Prelude.Prng.create seed in
  let limit = 2 * n in
  let fresh =
    match order with
    | `Ascending -> Array.init limit Fun.id
    | `Descending -> Array.init limit (fun i -> limit - 1 - i)
    | `Random ->
        let ids = Array.init limit Fun.id in
        for i = limit - 1 downto 1 do
          let j = Prelude.Prng.int rng (i + 1) in
          let x = ids.(i) in
          ids.(i) <- ids.(j);
          ids.(j) <- x
        done;
        ids
  in
  let next = ref 0 and live = ref [||] and ops = ref [] in
  let add () =
    let peer = fresh.(!next) in
    incr next;
    live := Array.append !live [| peer |];
    ops := Add (peer, 1 + Prelude.Prng.int rng (Array.length placement_parent - 1)) :: !ops
  in
  let drop () =
    let i = Prelude.Prng.int rng (Array.length !live) in
    ops := Drop !live.(i) :: !ops;
    live := Array.append (Array.sub !live 0 i) (Array.sub !live (i + 1) (Array.length !live - i - 1))
  in
  for _ = 1 to n do
    add ()
  done;
  for _ = 1 to n / 2 do
    if Prelude.Prng.int rng 2 = 0 then add () else drop ()
  done;
  for _ = 1 to 4 * Array.length !live / 5 do
    drop ()
  done;
  List.rev !ops

(* Apply [ops] to a fresh tree, calling [step] after each. *)
let replay ops step =
  let t = Path_tree_core.create ~landmark:0 in
  List.iter
    (fun op ->
      (match op with
      | Add (peer, r) -> Path_tree_core.insert_path t ~peer ~routers:(placement_path r) ~costs:hop_costs
      | Drop peer -> Path_tree_core.remove t peer);
      step t op)
    ops;
  t

let placement_layout t =
  let f = Path_tree_core.fill t in
  (f.chunks, f.slots)

(* After every insert and remove the tree passes its invariants and
   answers as the naive scan does, both for a path from a random router
   and for a random member; the same sequence fed twice builds the same
   chunks, step by step, and the same payload estimate. *)
let qcheck_placement_matches_naive =
  QCheck.Test.make ~name:"chunk placement: invariants, naive answers, same layout twice" ~count:2
    QCheck.(pair small_nat (int_range 560 760))
    (fun (seed, n) ->
      List.for_all
        (fun order ->
          let ops = placement_ops ~order ~seed ~n in
          let rng = Prelude.Prng.create (seed + 1) in
          let naive = Naive_registry.create ~landmark:0 in
          let ok = ref true and layouts = ref [] in
          let once =
            replay ops (fun t op ->
                (match op with
                | Add (peer, r) -> Naive_registry.insert naive ~peer ~routers:(placement_path r)
                | Drop peer -> Naive_registry.remove naive peer);
                Path_tree_core.check_invariants t;
                let routers = placement_path (Prelude.Prng.int rng (Array.length placement_parent)) in
                if
                  Path_tree_core.query_path t ~routers ~costs:hop_costs ~k:5 ()
                  <> Naive_registry.query naive ~routers ~k:5 ()
                then ok := false;
                (match op with
                | Add (peer, _) ->
                    if Path_tree_core.query_member t ~peer ~k:5 <> Naive_registry.query_member naive ~peer ~k:5
                    then ok := false
                | Drop _ -> ());
                layouts := placement_layout t :: !layouts)
          in
          let again = ref [] in
          let twice = replay ops (fun t _ -> again := placement_layout t :: !again) in
          !ok && !layouts = !again && Path_tree_core.approx_bytes once = Path_tree_core.approx_bytes twice)
        [ `Ascending; `Random; `Descending ])

(* Members joining in id order put each insert at the end of its cost
   group.  Chunks that split in half left each split's lower half half
   full for good: this tree then held 134,144 key slots for its 70,818
   entries (53% full).  Splitting where the inserts land holds them in
   72,448 (98%). *)
let test_id_order_inserts_fill_chunks () =
  let rng = Prelude.Prng.create 5 in
  let t = Path_tree_core.create ~landmark:0 in
  for peer = 0 to 19_999 do
    let r = 1 + Prelude.Prng.int rng (Array.length placement_parent - 1) in
    Path_tree_core.insert_path t ~peer ~routers:(placement_path r) ~costs:hop_costs
  done;
  Path_tree_core.check_invariants t;
  let f = Path_tree_core.fill t in
  Alcotest.(check int) "entries" 70_818 f.entries;
  Alcotest.(check int) "key slots" 72_448 f.slots

let suite =
  let q t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t in
  ( "path_tree",
    [
      Alcotest.test_case "accessors" `Quick test_basic_accessors;
      Alcotest.test_case "insert validation" `Quick test_insert_validation;
      Alcotest.test_case "negative router rejected" `Quick test_negative_router_rejected;
      Alcotest.test_case "meeting point" `Quick test_meeting_point;
      Alcotest.test_case "meeting point symmetry" `Quick test_meeting_point_symmetry;
      Alcotest.test_case "dtree" `Quick test_dtree;
      Alcotest.test_case "colocated peers" `Quick test_same_attach_router;
      Alcotest.test_case "query basic" `Quick test_query_basic;
      Alcotest.test_case "query unregistered twin" `Quick test_query_excludes_self_only_with_member;
      Alcotest.test_case "query exclude" `Quick test_query_exclude_predicate;
      Alcotest.test_case "query newcomer" `Quick test_query_newcomer_path;
      Alcotest.test_case "query missing member" `Quick test_query_missing_member;
      Alcotest.test_case "remove" `Quick test_remove;
      Alcotest.test_case "invariants" `Quick test_invariants_detect_nothing_on_good_tree;
      Alcotest.test_case "truncated registration" `Quick test_truncated_path_registration;
      Alcotest.test_case "iter members" `Quick test_iter_members;
      Alcotest.test_case "member through a router" `Quick test_member_through;
      Alcotest.test_case "equal routes share one array" `Quick test_equal_routes_share_one_array;
      Alcotest.test_case "removing the sharing head keeps the route" `Quick
        test_remove_bucket_head_keeps_shared_route;
      Alcotest.test_case "caller's array not kept" `Quick test_caller_array_not_kept;
      Alcotest.test_case "approx_bytes counts a shared route once" `Quick
        test_approx_bytes_counts_shared_route_once;
      q qcheck_query_matches_bruteforce;
      q qcheck_insert_remove_roundtrip;
      Alcotest.test_case "naive registry fixture" `Quick test_naive_matches_on_fixture;
      q qcheck_naive_equivalence;
      q qcheck_sparse_routers_match_naive;
      Alcotest.test_case "insert allocates no cost array" `Quick
        test_insert_allocates_no_cost_array;
      q qcheck_batch_layout;
      Alcotest.test_case "member query allocation" `Quick test_query_member_allocation;
      Alcotest.test_case "member query words flat in bucket size" `Quick
        test_query_member_words_flat_in_bucket_size;
      q qcheck_topk_is_sort_and_take;
      Alcotest.test_case "small batch allocates like singletons" `Quick
        test_batch_allocates_like_singletons;
      q qcheck_placement_matches_naive;
      Alcotest.test_case "id-order inserts fill their chunks" `Quick
        test_id_order_inserts_fill_chunks;
    ] )
