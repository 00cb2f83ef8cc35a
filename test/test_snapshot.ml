(* Server snapshot / restore. *)

open Nearby

let fixture ~seed =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 400) ~seed in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let rng = Prelude.Prng.create seed in
  let landmarks = Landmark.place map.graph Landmark.Medium_degree ~count:4 ~rng in
  (map, oracle, landmarks)

let populated ~seed ~peers =
  let map, oracle, landmarks = fixture ~seed in
  let server = Server.create oracle ~landmarks in
  let client = Client.create oracle ~landmarks in
  for peer = 0 to peers - 1 do
    ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer mod Array.length map.leaves))
  done;
  (map, oracle, server)

let test_roundtrip_preserves_answers () =
  let _, oracle, server = populated ~seed:1 ~peers:60 in
  let blob = Server.snapshot server in
  match Server.restore oracle blob with
  | Error e -> Alcotest.fail e
  | Ok restored ->
      Server.check_invariants restored;
      Alcotest.(check int) "peer count" (Server.peer_count server) (Server.peer_count restored);
      Alcotest.(check (array int)) "landmarks" (Server.landmarks server) (Server.landmarks restored);
      for peer = 0 to 59 do
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "peer %d answers preserved" peer)
          (Server.neighbors server ~peer ~k:5)
          (Server.neighbors restored ~peer ~k:5)
      done

let test_restored_server_keeps_working () =
  let map, oracle, server = populated ~seed:2 ~peers:20 in
  match Server.restore oracle (Server.snapshot server) with
  | Error e -> Alcotest.fail e
  | Ok restored ->
      (* New joins, leaves and handovers must work on the restored state. *)
      let client = Client.create oracle ~landmarks:(Server.landmarks restored) in
      ignore (Server.join restored ~client ~peer:100 ~attach_router:map.leaves.(30));
      Server.leave restored ~peer:0;
      ignore (Server.handover restored ~client ~peer:1 ~attach_router:map.leaves.(31));
      Server.check_invariants restored;
      Alcotest.(check int) "population evolved" 20 (Server.peer_count restored);
      Alcotest.check_raises "old duplicate still rejected"
        (Invalid_argument "Server.join: peer already registered") (fun () ->
          ignore (Server.join restored ~client ~peer:5 ~attach_router:map.leaves.(0)))

let test_snapshot_deterministic () =
  let _, _, server = populated ~seed:3 ~peers:25 in
  Alcotest.(check bool) "stable bytes" true (Server.snapshot server = Server.snapshot server)

let test_restore_rejects_corruption () =
  let _, oracle, server = populated ~seed:4 ~peers:10 in
  let blob = Server.snapshot server in
  (* Every strict prefix must fail cleanly. *)
  let rejected = ref 0 in
  for len = 0 to String.length blob - 1 do
    match Server.restore oracle (String.sub blob 0 len) with
    | Error _ -> incr rejected
    | Ok _ -> ()
  done;
  Alcotest.(check int) "all prefixes rejected" (String.length blob) !rejected;
  (match Server.restore oracle (blob ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Server.restore oracle "\x09garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad version accepted"

let test_restore_empty_server () =
  let _, oracle, landmarks = fixture ~seed:5 in
  let server = Server.create oracle ~landmarks in
  match Server.restore oracle (Server.snapshot server) with
  | Error e -> Alcotest.fail e
  | Ok restored ->
      Alcotest.(check int) "empty" 0 (Server.peer_count restored);
      Alcotest.(check (array int)) "landmarks kept" landmarks (Server.landmarks restored)

let test_bucket_repair () =
  let map, oracle, source = populated ~seed:6 ~peers:60 in
  let landmarks = Server.landmarks source in
  (* The straggler misses peers 0-4, holds peer 5 from another router and
     an extra peer 70 the source never saw. *)
  let straggler = Server.create oracle ~landmarks in
  let client = Client.create oracle ~landmarks in
  for peer = 6 to 59 do
    let info = Option.get (Server.info source peer) in
    Server.register_replica straggler ~peer ~attach_router:info.attach_router
      ~landmark:info.landmark ~path:info.recorded_path ~probes_spent:info.probes_spent
  done;
  ignore (Server.join straggler ~client ~peer:5 ~attach_router:map.leaves.(40));
  ignore (Server.join straggler ~client ~peer:70 ~attach_router:map.leaves.(41));
  let buckets =
    match Server.differing_buckets source (Server.bucket_summary straggler) with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let touched = List.sort_uniq compare (List.map Server.bucket_of [ 0; 1; 2; 3; 4; 5; 70 ]) in
  Alcotest.(check (list int)) "exactly the touched buckets differ" touched buckets;
  Alcotest.(check int) "summary size" ((8 * Server.bucket_count) + 2)
    (String.length (Server.bucket_summary source));
  let data = Server.snapshot_buckets source buckets in
  (* Corrupt input changes nothing. *)
  let before = Server.digest straggler in
  for len = 0 to String.length data - 1 do
    match Server.apply_buckets ~replace:buckets straggler (String.sub data 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "prefix of %d bytes accepted" len)
  done;
  (match Server.apply_buckets ~replace:[] straggler data with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "entries outside the replaced buckets accepted");
  Alcotest.(check bool) "rejected input left the straggler alone" true
    (Int64.equal before (Server.digest straggler));
  (* Five missing entries, one replaced, one removed. *)
  (match Server.apply_buckets ~replace:buckets straggler data with
  | Ok written -> Alcotest.(check int) "registrations written or removed" 7 written
  | Error e -> Alcotest.fail e);
  Server.check_invariants straggler;
  Alcotest.(check bool) "content equal" true
    (Int64.equal (Server.digest source) (Server.digest straggler));
  Alcotest.(check (list int)) "same peers" (Server.peer_ids source) (Server.peer_ids straggler);
  Alcotest.(check (list (pair int int)))
    "same answers" (Server.neighbors source ~peer:5 ~k:5)
    (Server.neighbors straggler ~peer:5 ~k:5);
  match Server.differing_buckets source (String.sub (Server.bucket_summary source) 0 9) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated summary accepted"

(* --- Shared routes survive restore and repair --- *)

(* The path tree, remembering every tree it creates so a test can read the
   arrays they store. *)
let capturing () =
  let trees = ref [] in
  let module B = struct
    include Path_tree

    let create ~landmark =
      let t = Path_tree.create ~landmark in
      trees := t :: !trees;
      t
  end in
  ((module B : Registry_intf.S), trees)

(* Per tree, members with equal stored routes hold one array; returns how
   many distinct arrays the trees hold. *)
let check_sharing what trees =
  List.fold_left
    (fun distinct tree ->
      let seen = ref [] in
      Path_tree.iter_members tree (fun peer ->
          let routers = Option.get (Path_tree.path_of tree peer) in
          match List.assoc_opt routers !seen with
          | Some first ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: peer %d shares its route" what peer)
                true (first == routers)
          | None -> seen := (routers, routers) :: !seen);
      distinct + List.length !seen)
    0 !trees

(* 80 peers on 12 attach routers share routes at the source; a restored
   server and a straggler repaired by anti-entropy share them the same
   way, since every registration goes through the tree's insert. *)
let test_restore_and_repair_keep_sharing () =
  let map, oracle, landmarks = fixture ~seed:7 in
  let peers = 80 in
  let attach peer = map.leaves.(peer mod 12) in
  let backend, source_trees = capturing () in
  let source = Server.create ~backend oracle ~landmarks in
  let client = Client.create oracle ~landmarks in
  for peer = 0 to peers - 1 do
    ignore (Server.join source ~client ~peer ~attach_router:(attach peer))
  done;
  let routes = check_sharing "source" source_trees in
  Alcotest.(check bool) (Printf.sprintf "%d routes for %d peers" routes peers) true (routes <= 12);
  let backend, restored_trees = capturing () in
  (match Server.restore ~backend oracle (Server.snapshot source) with
  | Error e -> Alcotest.fail e
  | Ok restored ->
      Server.check_invariants restored;
      Alcotest.(check bool) "restored digest" true
        (Int64.equal (Server.digest source) (Server.digest restored)));
  Alcotest.(check int) "restored routes" routes (check_sharing "restored" restored_trees);
  (* The straggler holds every third peer; repair writes the rest. *)
  let backend, straggler_trees = capturing () in
  let straggler = Server.create ~backend oracle ~landmarks in
  for peer = 0 to peers - 1 do
    if peer mod 3 = 0 then begin
      let info = Option.get (Server.info source peer) in
      Server.register_replica straggler ~peer ~attach_router:info.attach_router
        ~landmark:info.landmark ~path:info.recorded_path ~probes_spent:info.probes_spent
    end
  done;
  let buckets =
    match Server.differing_buckets source (Server.bucket_summary straggler) with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  (match Server.apply_buckets ~replace:buckets straggler (Server.snapshot_buckets source buckets) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Server.check_invariants straggler;
  Alcotest.(check bool) "repaired digest" true
    (Int64.equal (Server.digest source) (Server.digest straggler));
  Alcotest.(check int) "repaired routes" routes (check_sharing "repaired" straggler_trees)

(* The flat entry layout: peer, attach router, probe cost, then the routers
   as a varint array ending at the landmark. *)
let write_entry w (peer, attach, probes, routers) =
  let open Prelude.Codec.Writer in
  varint w peer;
  varint w attach;
  varint w probes;
  array w varint routers

let partial entries =
  let w = Prelude.Codec.Writer.create () in
  Prelude.Codec.Writer.list w write_entry entries;
  Prelude.Codec.Writer.contents w

let full landmarks entries =
  let open Prelude.Codec.Writer in
  let w = create () in
  u8 w 2;
  list w varint (Array.to_list landmarks);
  list w write_entry entries;
  contents w

(* An incoming entry is already held when it carries the attach router,
   probe cost and routers the server stores; anything else is written. *)
let test_apply_compares_registered_routers () =
  let _, oracle, _ = fixture ~seed:9 in
  let l = 0 in
  let server = Server.create oracle ~landmarks:[| l |] in
  let register peer routers =
    let src = List.hd routers in
    Server.register_replica server ~peer ~attach_router:src ~landmark:l
      ~path:(Traceroute.Path.of_routers ~src ~dst:l routers)
      ~probes_spent:3
  in
  register 1 [ 5; 6; l ];
  register 2 [ 7; l; l ];
  let entry peer routers = partial [ (peer, routers.(0), 3, routers) ] in
  let written name expected data =
    match Server.apply_buckets server data with
    | Ok n -> Alcotest.(check int) name expected n
    | Error e -> Alcotest.fail e
  in
  written "same routers: held" 0 (entry 1 [| 5; 6; l |]);
  written "other probes: written" 1 (partial [ (1, 5, 4, [| 5; 6; l |]) ]);
  written "other routers: written" 1 (entry 1 [| 5; 8; l |]);
  Alcotest.(check (option (array int))) "the new routers" (Some [| 5; 8; l |]) (Server.path_of server 1);
  written "a repeated landmark is a router: written" 1 (entry 2 [| 7; l |]);
  Server.check_invariants server

(* [entries] are refused with [msg] both under a full snapshot's header
   ([restore]) and as a partial snapshot ([apply_buckets]), and the server
   is left as it was. *)
let check_rejected server oracle ~name ~msg entries =
  let before = Server.digest server and count = Server.peer_count server in
  (match Server.restore oracle (full (Server.landmarks server) entries) with
  | Error e -> Alcotest.(check string) (name ^ ": restore") msg e
  | Ok _ -> Alcotest.fail (name ^ ": restored"));
  List.iter
    (fun replace ->
      match Server.apply_buckets ?replace server (partial entries) with
      | Error e -> Alcotest.(check string) (name ^ ": apply") msg e
      | Ok _ -> Alcotest.fail (name ^ ": applied"))
    [ None; Some (List.map (fun (peer, _, _, _) -> Server.bucket_of peer) entries) ];
  Alcotest.(check bool) (name ^ ": digest unchanged") true
    (Int64.equal before (Server.digest server));
  Alcotest.(check int) (name ^ ": peer count unchanged") count (Server.peer_count server)

(* A snapshot naming a router the graph does not have is corrupt: as a
   hop it would size the tree's router-indexed buckets, as an attach
   router it would index past the graph on the next audited query. *)
let test_routers_outside_graph_rejected () =
  let map, oracle, server = populated ~seed:1 ~peers:20 in
  let outside = Topology.Graph.node_count map.graph + 5_000_000 in
  let valid = Option.get (Server.info server 0) in
  let routers = Option.get (Server.path_of server 0) in
  let lmk = valid.landmark in
  let probes = valid.probes_spent in
  let entries attach routers_1 =
    [ (0, valid.attach_router, probes, routers); (1, attach, probes, routers_1) ]
  in
  List.iter
    (fun (name, attach, routers_1) ->
      check_rejected server oracle ~name
        ~msg:"malformed input: snapshot names a router outside the graph"
        (entries attach routers_1))
    [
      ("a hop outside the graph", valid.attach_router, [| outside; lmk |]);
      ("an attach router outside the graph", outside, routers);
    ];
  Server.check_invariants server

(* A route is registered as it arrives, so one that is empty or does not
   end at a landmark is corrupt, not repaired. *)
let test_routes_not_ending_at_a_landmark_rejected () =
  let _, oracle, server = populated ~seed:1 ~peers:20 in
  let valid = Option.get (Server.info server 0) in
  let routers = Option.get (Server.path_of server 0) in
  let entry routers = [ (0, valid.attach_router, valid.probes_spent, routers) ] in
  check_rejected server oracle ~name:"an empty route"
    ~msg:"malformed input: snapshot entry has an empty route" (entry [||]);
  let stopped_short = Array.sub routers 0 (Array.length routers - 1) in
  check_rejected server oracle ~name:"a route stopped short of its landmark"
    ~msg:"malformed input: snapshot route does not end at a landmark" (entry stopped_short);
  Server.check_invariants server

(* Version 1 nested each route in a wire path report; it is refused, not
   read. *)
let test_version_1_rejected () =
  let _, oracle, server = populated ~seed:2 ~peers:10 in
  let v1 =
    let open Prelude.Codec.Writer in
    let w = create () in
    u8 w 1;
    list w varint (Array.to_list (Server.landmarks server));
    list w
      (fun w peer ->
        let info = Option.get (Server.info server peer) in
        varint w peer;
        varint w info.attach_router;
        varint w info.landmark;
        varint w info.probes_spent;
        bytes w (Wire.encode (Wire.Path_report { peer; path = info.recorded_path })))
      (Server.peer_ids server);
    contents w
  in
  let before = Server.digest server and count = Server.peer_count server in
  (match Server.restore oracle v1 with
  | Error e -> Alcotest.(check string) "refused" "malformed input: unsupported snapshot version 1" e
  | Ok _ -> Alcotest.fail "a version-1 snapshot restored");
  Alcotest.(check bool) "digest unchanged" true (Int64.equal before (Server.digest server));
  Alcotest.(check int) "peer count unchanged" count (Server.peer_count server)

(* An entry's bytes are the varints of its four fields, and a snapshot is
   the version byte, the landmarks and the entries. *)
let test_entry_layout () =
  let _, _, server = populated ~seed:3 ~peers:12 in
  let varint v =
    let w = Prelude.Codec.Writer.create () in
    Prelude.Codec.Writer.varint w v;
    Prelude.Codec.Writer.contents w
  in
  let varints vs = String.concat "" (List.map varint vs) in
  let entry peer =
    let info = Option.get (Server.info server peer) in
    let routers = Array.to_list (Option.get (Server.path_of server peer)) in
    varints ([ peer; info.attach_router; info.probes_spent; List.length routers ] @ routers)
  in
  let entries peers = varint (List.length peers) ^ String.concat "" (List.map entry peers) in
  let peers = Server.peer_ids server in
  let landmarks = Array.to_list (Server.landmarks server) in
  Alcotest.(check string) "snapshot"
    ("\x02" ^ varints (List.length landmarks :: landmarks) ^ entries peers)
    (Server.snapshot server);
  let bucket = Server.bucket_of (List.nth peers 5) in
  Alcotest.(check string) "partial snapshot"
    (entries (List.filter (fun p -> Server.bucket_of p = bucket) peers))
    (Server.snapshot_buckets server [ bucket ])

let suite =
  ( "snapshot",
    [
      Alcotest.test_case "roundtrip preserves answers" `Quick test_roundtrip_preserves_answers;
      Alcotest.test_case "restored server works" `Quick test_restored_server_keeps_working;
      Alcotest.test_case "deterministic bytes" `Quick test_snapshot_deterministic;
      Alcotest.test_case "corruption rejected" `Quick test_restore_rejects_corruption;
      Alcotest.test_case "empty roundtrip" `Quick test_restore_empty_server;
      Alcotest.test_case "bucket repair" `Quick test_bucket_repair;
      Alcotest.test_case "apply compares registered routers" `Quick
        test_apply_compares_registered_routers;
      Alcotest.test_case "routers outside the graph rejected" `Quick
        test_routers_outside_graph_rejected;
      Alcotest.test_case "routes not ending at a landmark rejected" `Quick
        test_routes_not_ending_at_a_landmark_rejected;
      Alcotest.test_case "version 1 rejected" `Quick test_version_1_rejected;
      Alcotest.test_case "entry layout" `Quick test_entry_layout;
      Alcotest.test_case "restore and repair keep shared routes" `Quick
        test_restore_and_repair_keep_sharing;
    ] )
