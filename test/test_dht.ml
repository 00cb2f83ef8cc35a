(* Chord ring and the distributed directory. *)

open Dht

let members n = Array.init n (fun i -> 1000 + (i * 7))

let test_build_and_invariants () =
  let ring = Chord.build (members 32) in
  Alcotest.(check int) "member count" 32 (Chord.member_count ring);
  Chord.check_invariants ring;
  let ms = Chord.members ring in
  let sorted = Array.copy ms in
  Array.sort compare sorted;
  Alcotest.(check int) "all members present" 32 (Array.length (Array.of_list (List.sort_uniq compare (Array.to_list ms))))

(* The ring keeps its member count: it equals the distinct members it
   lists, with and without virtual positions, and a directory's node
   count follows its ring through a join and a leave. *)
let test_member_count_kept () =
  List.iter
    (fun (n, virtual_nodes) ->
      let ring = Chord.build ~virtual_nodes (members n) in
      Alcotest.(check int)
        (Printf.sprintf "%d members, %d virtual nodes" n virtual_nodes)
        (Array.length (Chord.members ring)) (Chord.member_count ring))
    [ (1, 1); (2, 3); (32, 1); (32, 4); (100, 2) ];
  let d = Directory.create ~virtual_nodes:3 ~landmark:0 (members 10) in
  Alcotest.(check int) "directory nodes" 10 (Directory.node_count d);
  ignore (Directory.add_node d ~node:555_000);
  ignore (Directory.remove_node d ~node:(List.hd (Array.to_list (members 10))));
  Alcotest.(check int) "after a join and a leave" 10 (Directory.node_count d)

let test_build_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Chord.build: no members") (fun () ->
      ignore (Chord.build [||]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Chord.build: duplicate member") (fun () ->
      ignore (Chord.build [| 1; 1 |]))

let test_lookup_finds_owner () =
  let ring = Chord.build (members 64) in
  let ms = Chord.members ring in
  for key = 0 to 200 do
    let owner = Chord.owner_of ring ~key in
    Array.iter
      (fun from ->
        let found, hops = Chord.lookup ring ~from ~key in
        Alcotest.(check int) (Printf.sprintf "key %d from %d" key from) owner found;
        Alcotest.(check bool) "hops bounded" true (hops >= 0 && hops <= 64))
      (Array.sub ms 0 8)
  done

let test_lookup_from_owner_is_free () =
  let ring = Chord.build (members 16) in
  for key = 0 to 50 do
    let owner = Chord.owner_of ring ~key in
    let _, hops = Chord.lookup ring ~from:owner ~key in
    Alcotest.(check int) "zero hops at the owner" 0 hops
  done

let test_lookup_unknown_member () =
  let ring = Chord.build (members 4) in
  Alcotest.check_raises "unknown" (Invalid_argument "Chord.lookup: unknown member") (fun () ->
      ignore (Chord.lookup ring ~from:999_999 ~key:3))

let test_lookup_hops_logarithmic () =
  (* Mean lookup hops must grow like log N: going 16 -> 256 members (16x)
     should far less than 16x the hops. *)
  let mean_hops n =
    let ring = Chord.build (members n) in
    let ms = Chord.members ring in
    let total = ref 0 and count = ref 0 in
    for key = 0 to 299 do
      let from = ms.(key mod n) in
      let _, hops = Chord.lookup ring ~from ~key:(key * 131) in
      total := !total + hops;
      incr count
    done;
    float_of_int !total /. float_of_int !count
  in
  let small = mean_hops 16 and large = mean_hops 256 in
  Alcotest.(check bool)
    (Printf.sprintf "hops scale gently (%.2f -> %.2f)" small large)
    true
    (large < 4.0 *. small && large < 10.0)

let test_hash_deterministic () =
  Alcotest.(check int) "stable" (Chord.hash_key 42) (Chord.hash_key 42);
  Alcotest.(check bool) "distinct keys usually differ" true (Chord.hash_key 1 <> Chord.hash_key 2)

(* --- Directory --- *)

let lmk = 77

let sample_paths = [ (0, [| 10; 11; 3; 2; lmk |]); (1, [| 20; 21; 3; 2; lmk |]); (2, [| 30; 2; lmk |]) ]

let populated_directory () =
  let d = Directory.create ~landmark:lmk (members 8) in
  List.iter (fun (peer, routers) -> Directory.insert d ~peer ~routers) sample_paths;
  d

let test_directory_matches_path_tree () =
  let d = populated_directory () in
  let tree = Nearby.Path_tree.create ~landmark:lmk in
  List.iter (fun (peer, routers) -> Nearby.Path_tree.insert tree ~peer ~routers) sample_paths;
  for peer = 0 to 2 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "peer %d identical answers" peer)
      (Nearby.Path_tree.query_member tree ~peer ~k:5)
      (Directory.query_member d ~peer ~k:5)
  done

let test_directory_random_equivalence () =
  (* Random sink-tree workload: the DHT directory must answer exactly like
     the in-memory tree. *)
  let rng = Prelude.Prng.create 5 in
  let n_routers = 40 in
  let parent = Array.init n_routers (fun r -> if r = 0 then -1 else Prelude.Prng.int rng r) in
  let path_from r =
    let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
    Array.of_list (climb r [])
  in
  let d = Directory.create ~landmark:0 (members 12) in
  let tree = Nearby.Path_tree.create ~landmark:0 in
  for peer = 0 to 59 do
    let path = path_from (Prelude.Prng.int rng n_routers) in
    Directory.insert d ~peer ~routers:path;
    Nearby.Path_tree.insert tree ~peer ~routers:path
  done;
  for trial = 0 to 39 do
    let q = path_from (Prelude.Prng.int rng n_routers) in
    let k = 1 + (trial mod 6) in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "trial %d" trial)
      (Nearby.Path_tree.query tree ~routers:q ~k ())
      (Directory.query d ~routers:q ~k ())
  done

let test_directory_remove () =
  let d = populated_directory () in
  Directory.remove d ~peer:1;
  Alcotest.(check int) "members" 2 (Directory.member_count d);
  Alcotest.(check bool) "gone from answers" true
    (List.for_all (fun (p, _) -> p <> 1) (Directory.query_member d ~peer:0 ~k:5));
  Alcotest.check_raises "double remove" Not_found (fun () -> Directory.remove d ~peer:1)

let test_directory_stats () =
  let d = populated_directory () in
  Directory.reset_counters d;
  ignore (Directory.query_member d ~peer:0 ~k:5);
  let stats = Directory.stats d in
  Alcotest.(check bool) "lookups counted" true (stats.lookups > 0);
  Alcotest.(check bool) "hops accounted" true (stats.overlay_hops >= 0);
  Alcotest.(check int) "one balance row per node" 8 (List.length stats.buckets_per_node);
  let total_buckets = List.fold_left (fun acc (_, b) -> acc + b) 0 stats.buckets_per_node in
  (* Distinct routers across the three registered paths. *)
  Alcotest.(check int) "buckets cover the routers" 8 total_buckets

(* --- Kademlia --- *)

let test_kademlia_build_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Kademlia.build: no members") (fun () ->
      ignore (Kademlia.build [||]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Kademlia.build: duplicate member") (fun () ->
      ignore (Kademlia.build [| 4; 4 |]));
  Alcotest.check_raises "bucket size" (Invalid_argument "Kademlia.build: bucket_size must be >= 1")
    (fun () -> ignore (Kademlia.build ~bucket_size:0 (members 4)))

let test_kademlia_invariants () =
  let t = Kademlia.build ~bucket_size:3 (members 50) in
  Kademlia.check_invariants t;
  Alcotest.(check int) "member count" 50 (Kademlia.member_count t);
  Array.iter
    (fun m ->
      for i = 0 to 31 do
        Alcotest.(check bool) "bucket bounded" true
          (List.length (Kademlia.bucket_of t ~member:m ~index:i) <= 3)
      done)
    (Array.sub (Kademlia.members t) 0 5)

let test_kademlia_lookup_finds_owner () =
  let t = Kademlia.build ~bucket_size:4 (members 80) in
  let ms = Kademlia.members t in
  for key = 0 to 150 do
    let owner = Kademlia.owner_of t ~key in
    Array.iter
      (fun from ->
        let found, hops = Kademlia.lookup t ~from ~key in
        Alcotest.(check int) (Printf.sprintf "key %d from %d" key from) owner found;
        Alcotest.(check bool) "hops small" true (hops <= 32))
      (Array.sub ms 0 6)
  done

let test_kademlia_owner_lookup_free () =
  let t = Kademlia.build (members 20) in
  for key = 0 to 40 do
    let owner = Kademlia.owner_of t ~key in
    let _, hops = Kademlia.lookup t ~from:owner ~key in
    Alcotest.(check int) "zero hops at owner" 0 hops
  done

let test_kademlia_vs_chord_consistent () =
  (* Different metrics may pick different owners; each must be internally
     consistent from every starting member. *)
  let m = members 30 in
  let chord = Chord.build m and kad = Kademlia.build m in
  for key = 0 to 60 do
    let co = Chord.owner_of chord ~key and ko = Kademlia.owner_of kad ~key in
    Array.iter
      (fun from ->
        Alcotest.(check int) "chord consistent" co (fst (Chord.lookup chord ~from ~key));
        Alcotest.(check int) "kademlia consistent" ko (fst (Kademlia.lookup kad ~from ~key)))
      (Array.sub m 0 4)
  done

let test_membership_dynamics () =
  (* Random sink-tree workload; answers must be identical across node
     joins and leaves, and migrations must stay near the K/N consistent-
     hashing bound. *)
  let rng = Prelude.Prng.create 9 in
  let n_routers = 60 in
  let parent = Array.init n_routers (fun r -> if r = 0 then -1 else Prelude.Prng.int rng r) in
  let path_from r =
    let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
    Array.of_list (climb r [])
  in
  let d = Directory.create ~landmark:0 (members 10) in
  for peer = 0 to 79 do
    Directory.insert d ~peer ~routers:(path_from (Prelude.Prng.int rng n_routers))
  done;
  let reference = List.init 80 (fun peer -> Directory.query_member d ~peer ~k:4) in
  let total_buckets =
    List.fold_left (fun acc (_, b) -> acc + b) 0 (Directory.stats d).buckets_per_node
  in
  (* Join a node: answers unchanged, migration below ~3x the fair share. *)
  let moved_in = Directory.add_node d ~node:555_000 in
  Alcotest.(check int) "node joined" 11 (Directory.node_count d);
  Alcotest.(check bool)
    (Printf.sprintf "join moved %d of %d buckets" moved_in total_buckets)
    true
    (moved_in <= 3 * total_buckets / 10);
  List.iteri
    (fun peer expected ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "peer %d after join" peer)
        expected
        (Directory.query_member d ~peer ~k:4))
    reference;
  (* Leave: same checks. *)
  let moved_out = Directory.remove_node d ~node:555_000 in
  Alcotest.(check int) "node left" 10 (Directory.node_count d);
  Alcotest.(check int) "leave undoes the join's share" moved_in moved_out;
  List.iteri
    (fun peer expected ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "peer %d after leave" peer)
        expected
        (Directory.query_member d ~peer ~k:4))
    reference;
  Alcotest.(check int) "migrations accumulated" (moved_in + moved_out) (Directory.migrations d);
  Alcotest.check_raises "duplicate join" (Invalid_argument "Directory.add_node: already a member")
    (fun () -> ignore (Directory.add_node d ~node:(members 10).(0)));
  Alcotest.check_raises "unknown leave" (Invalid_argument "Directory.remove_node: not a member")
    (fun () -> ignore (Directory.remove_node d ~node:424242))

let test_dht_exp_smoke () =
  let report =
    Eval.Dht_exp.run
      { Eval.Dht_exp.routers = 400; peers = 60; landmark_count = 3; dht_nodes = 8; virtual_nodes = 4; k = 4; seed = 1 }
  in
  Alcotest.(check bool) "answers identical" true report.answers_identical;
  Alcotest.(check bool) "lookups per join = path length-ish" true
    (report.mean_lookups_per_join > 2.0 && report.mean_lookups_per_join < 20.0);
  Alcotest.(check bool) "hops bounded by ring size" true
    (report.mean_hops_per_lookup >= 0.0 && report.mean_hops_per_lookup <= 8.0);
  Alcotest.(check bool) "balance >= 1" true (report.bucket_balance >= 1.0);
  (* Pinned: how the super-peer split and the backend sweep are built must
     not move the report. *)
  let close = Alcotest.(check (float 1e-9)) in
  close "lookups per join" 6.1333333333333337 report.mean_lookups_per_join;
  close "hops per lookup" 3.2717086834733893 report.mean_hops_per_lookup;
  close "lookups per query" 5.7666666666666666 report.mean_lookups_per_query;
  close "bucket balance" 2.3850931677018634 report.bucket_balance;
  close "bucket balance v1" 3.1801242236024843 report.bucket_balance_v1;
  close "super-peer balance" 2.85 report.super_peer_balance;
  close "kademlia hops" 0.85054347826086951 report.mean_hops_kademlia;
  close "join migration" 0.0 report.join_migration_fraction;
  Alcotest.(check (list (triple string bool int)))
    "backend rows: backend, answers = tree, queries"
    [ ("tree", true, 60); ("naive", true, 60); ("dht", true, 60) ]
    (List.map
       (fun (b : Eval.Dht_exp.backend_row) -> (b.backend, b.identical, b.queries))
       report.backend_rows);
  Alcotest.(check (list (list (pair string int))))
    "backend stats"
    [
      [ ("members", 60); ("routers", 161) ];
      [ ("members", 60) ];
      [
        ("dht_nodes", 96);
        ("lookups", 714);
        ("members", 60);
        ("migrations", 0);
        ("overlay_hops", 3428);
        ("routers", 161);
      ];
    ]
    (List.map (fun (b : Eval.Dht_exp.backend_row) -> b.backend_stats) report.backend_rows)

(* A member query allocates its answer (a pair and a cons per neighbor)
   and one [(owner, hops)] pair per ring lookup: no seen-table, no
   closure per bucket and no member array per lookup. *)
let test_directory_query_allocation () =
  let rng = Prelude.Prng.create 41 in
  let n_routers = 60 in
  let parent = Array.init n_routers (fun r -> if r = 0 then -1 else Prelude.Prng.int rng r) in
  let path_from r =
    let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
    Array.of_list (climb r [])
  in
  let d = Directory.create ~landmark:0 (members 10) in
  for peer = 0 to 399 do
    Directory.insert d ~peer ~routers:(path_from (Prelude.Prng.int rng n_routers))
  done;
  let k = 5 in
  ignore (Directory.query_member d ~peer:0 ~k);
  let lookups_before = (Directory.stats d).lookups in
  let returned = ref 0 in
  let before = Gc.minor_words () in
  for peer = 0 to 99 do
    returned := !returned + List.length (Directory.query_member d ~peer ~k)
  done;
  let words = Gc.minor_words () -. before in
  let lookups = (Directory.stats d).lookups - lookups_before in
  Alcotest.(check int) "full answers" (k * 100) !returned;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "words over 100 member queries, %d lookups" lookups)
    (float_of_int ((6 * !returned) + (3 * lookups)))
    words

let suite =
  ( "dht",
    [
      Alcotest.test_case "build + invariants" `Quick test_build_and_invariants;
      Alcotest.test_case "build validation" `Quick test_build_validation;
      Alcotest.test_case "member count kept" `Quick test_member_count_kept;
      Alcotest.test_case "lookup finds owner" `Quick test_lookup_finds_owner;
      Alcotest.test_case "owner lookup free" `Quick test_lookup_from_owner_is_free;
      Alcotest.test_case "lookup unknown member" `Quick test_lookup_unknown_member;
      Alcotest.test_case "hops logarithmic" `Slow test_lookup_hops_logarithmic;
      Alcotest.test_case "hash deterministic" `Quick test_hash_deterministic;
      Alcotest.test_case "directory = path tree (fixture)" `Quick test_directory_matches_path_tree;
      Alcotest.test_case "directory = path tree (random)" `Quick test_directory_random_equivalence;
      Alcotest.test_case "directory remove" `Quick test_directory_remove;
      Alcotest.test_case "directory stats" `Quick test_directory_stats;
      Alcotest.test_case "directory query allocation" `Quick test_directory_query_allocation;
      Alcotest.test_case "kademlia validation" `Quick test_kademlia_build_validation;
      Alcotest.test_case "kademlia invariants" `Quick test_kademlia_invariants;
      Alcotest.test_case "kademlia lookup" `Quick test_kademlia_lookup_finds_owner;
      Alcotest.test_case "kademlia owner free" `Quick test_kademlia_owner_lookup_free;
      Alcotest.test_case "kademlia vs chord consistency" `Quick test_kademlia_vs_chord_consistent;
      Alcotest.test_case "membership dynamics" `Quick test_membership_dynamics;
      Alcotest.test_case "dht experiment" `Slow test_dht_exp_smoke;
    ] )
