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

(* An incoming entry is already held when it would register the routers
   the tree stores, whatever anonymous hops its trace kept or whether it
   stopped short of the landmark; anything else is written. *)
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
  let entry peer hops =
    let open Prelude.Codec.Writer in
    let src = match hops.(0) with Traceroute.Path.Known r -> r | Anonymous -> 0 in
    let w = create () in
    list w
      (fun () ->
        varint w peer;
        varint w src;
        varint w l;
        varint w 3;
        bytes w (Wire.encode (Wire.Path_report { peer; path = { src; dst = l; hops } })))
      [ () ];
    contents w
  in
  let written name expected data =
    match Server.apply_buckets server data with
    | Ok n -> Alcotest.(check int) name expected n
    | Error e -> Alcotest.fail e
  in
  let known r = Traceroute.Path.Known r in
  written "an anonymous hop, same routers: held" 0
    (entry 1 [| known 5; Anonymous; known 6; known l |]);
  written "stopped short, same routers: held" 0 (entry 1 [| known 5; known 6 |]);
  written "other routers: written" 1 (entry 1 [| known 5; known 8; known l |]);
  Alcotest.(check (option (array int))) "the new routers" (Some [| 5; 8; l |]) (Server.path_of server 1);
  written "a repeated landmark is a router: written" 1 (entry 2 [| known 7; known l |]);
  Server.check_invariants server

(* A snapshot naming a router the graph does not have is corrupt: as a
   hop it would size the tree's router-indexed buckets, as an attach
   router it would index past the graph on the next audited query. *)
let test_routers_outside_graph_rejected () =
  let map, oracle, server = populated ~seed:1 ~peers:20 in
  let outside = Topology.Graph.node_count map.graph + 5_000_000 in
  let valid = Option.get (Server.info server 0) in
  let lmk = valid.landmark in
  let entries w second_attach second_hops =
    let open Prelude.Codec.Writer in
    let entry (peer, attach, hops) =
      varint w peer;
      varint w attach;
      varint w lmk;
      varint w valid.probes_spent;
      bytes w (Wire.encode (Wire.Path_report { peer; path = { src = attach; dst = lmk; hops } }))
    in
    list w entry
      [ (0, valid.attach_router, valid.recorded_path.hops); (1, second_attach, second_hops) ]
  in
  let known r = Traceroute.Path.Known r in
  let bad =
    [
      ("a hop outside the graph", valid.attach_router, [| known outside; known lmk |]);
      ("an attach router outside the graph", outside, valid.recorded_path.hops);
    ]
  in
  let before = Server.digest server and count = Server.peer_count server in
  List.iter
    (fun (name, attach, hops) ->
      let full =
        let w = Prelude.Codec.Writer.create () in
        Prelude.Codec.Writer.u8 w 1;
        Prelude.Codec.Writer.list w (Prelude.Codec.Writer.varint w)
          (Array.to_list (Server.landmarks server));
        entries w attach hops;
        Prelude.Codec.Writer.contents w
      in
      (match Server.restore oracle full with
      | Error msg ->
          Alcotest.(check string) (name ^ ": restore")
            "malformed input: snapshot names a router outside the graph" msg
      | Ok _ -> Alcotest.fail (name ^ ": restored"));
      let partial =
        let w = Prelude.Codec.Writer.create () in
        entries w attach hops;
        Prelude.Codec.Writer.contents w
      in
      List.iter
        (fun replace ->
          match Server.apply_buckets ?replace server partial with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail (name ^ ": applied"))
        [ None; Some [ Server.bucket_of 0; Server.bucket_of 1 ] ];
      Alcotest.(check bool) (name ^ ": digest unchanged") true
        (Int64.equal before (Server.digest server));
      Alcotest.(check int) (name ^ ": peer count unchanged") count (Server.peer_count server))
    bad;
  Server.check_invariants server

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
    ] )
