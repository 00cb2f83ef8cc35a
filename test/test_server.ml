(* Server: the management server and the two-round protocol. *)

open Nearby

let make_workload ?(routers = 400) ?(landmarks = 4) ~seed () =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params routers) ~seed in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let rng = Prelude.Prng.create seed in
  let lmks = Landmark.place map.graph Landmark.Medium_degree ~count:landmarks ~rng in
  (map, oracle, lmks, rng)

let test_create_validation () =
  let map, oracle, _, _ = make_workload ~seed:1 () in
  ignore map;
  Alcotest.check_raises "no landmarks" (Invalid_argument "Server.create: no landmarks") (fun () ->
      ignore (Server.create oracle ~landmarks:[||]));
  Alcotest.check_raises "duplicates" (Invalid_argument "Server.create: duplicate landmark") (fun () ->
      ignore (Server.create oracle ~landmarks:[| 3; 3 |]))

let test_join_registers () =
  let map, oracle, lmks, _ = make_workload ~seed:2 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  let info = Server.join server ~client ~peer:0 ~attach_router:map.leaves.(0) in
  Alcotest.(check int) "peer count" 1 (Server.peer_count server);
  Alcotest.(check bool) "mem" true (Server.mem server 0);
  Alcotest.(check bool) "landmark is one of ours" true (Array.mem info.landmark lmks);
  Alcotest.(check int) "attach router" map.leaves.(0) info.attach_router;
  Alcotest.(check bool) "path complete" true (Traceroute.Path.is_complete info.recorded_path);
  (* Round 1 costs one ping per landmark + the traceroute packets. *)
  Alcotest.(check bool) "probe cost counted" true
    (info.probes_spent >= Array.length lmks + Traceroute.Path.hop_count info.recorded_path);
  Server.check_invariants server

let test_join_picks_closest_landmark () =
  let map, oracle, lmks, _ = make_workload ~seed:3 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  let attach = map.leaves.(1) in
  let info = Server.join server ~client ~peer:0 ~attach_router:attach in
  let my_hops = Traceroute.Route_oracle.route_length oracle ~src:attach ~dst:info.landmark in
  Array.iter
    (fun lmk ->
      Alcotest.(check bool) "no landmark is strictly closer" true
        (Traceroute.Route_oracle.route_length oracle ~src:attach ~dst:lmk >= my_hops))
    lmks

let test_join_duplicate () =
  let map, oracle, lmks, _ = make_workload ~seed:4 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  ignore (Server.join server ~client ~peer:0 ~attach_router:map.leaves.(0));
  Alcotest.check_raises "duplicate" (Invalid_argument "Server.join: peer already registered")
    (fun () -> ignore (Server.join server ~client ~peer:0 ~attach_router:map.leaves.(1)))

let test_neighbors_sane () =
  let map, oracle, lmks, _ = make_workload ~seed:5 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  for peer = 0 to 49 do
    ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer mod Array.length map.leaves))
  done;
  for peer = 0 to 49 do
    let reply = Server.neighbors server ~peer ~k:5 in
    Alcotest.(check bool) "at most k" true (List.length reply <= 5);
    Alcotest.(check bool) "never self" true (List.for_all (fun (p, _) -> p <> peer) reply);
    let ids = List.map fst reply in
    Alcotest.(check int) "distinct" (List.length ids) (List.length (List.sort_uniq compare ids));
    (* Ascending inferred distance among same-tree entries. *)
    let rec ascending = function
      | (_, a) :: ((_, b) :: _ as rest) -> a <= b && ascending rest
      | _ -> true
    in
    Alcotest.(check bool) "sorted" true (ascending reply)
  done;
  Server.check_invariants server

let test_neighbors_unknown_peer () =
  let _, oracle, lmks, _ = make_workload ~seed:6 () in
  let server = Server.create oracle ~landmarks:lmks in
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Server.neighbors server ~peer:3 ~k:2))

let test_cross_tree_topup () =
  let map, oracle, lmks, _ = make_workload ~seed:7 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  (* Two peers: they may land in different landmark trees, yet each must be
     offered the other via top-up. *)
  ignore (Server.join server ~client ~peer:0 ~attach_router:map.leaves.(0));
  ignore (Server.join server ~client ~peer:1 ~attach_router:map.leaves.(Array.length map.leaves - 1));
  let reply = Server.neighbors server ~peer:0 ~k:3 in
  Alcotest.(check int) "the one other peer is returned" 1 (List.length reply);
  Alcotest.(check int) "it is peer 1" 1 (fst (List.hd reply));
  (* Asking for more than the population: every answer is the whole rest
     of it, the asker's own tree first, then the top-up. *)
  let n = 30 in
  let server = Server.create oracle ~landmarks:lmks in
  for peer = 0 to n - 1 do
    let attach_router = map.leaves.(peer * 7 mod Array.length map.leaves) in
    ignore (Server.join server ~client ~peer ~attach_router)
  done;
  let home peer = (Option.get (Server.info server peer)).landmark in
  let topups = ref 0 in
  for peer = 0 to n - 1 do
    let reply = Server.neighbors server ~peer ~k:n in
    Alcotest.(check int) "everyone else" (n - 1) (List.length reply);
    let regional, topup = List.partition (fun (_, d) -> d <> max_int) reply in
    Alcotest.(check bool) "regional entries first" true (reply = regional @ topup);
    List.iter
      (fun (p, _) -> Alcotest.(check int) "regional entry shares its landmark" (home peer) (home p))
      regional;
    List.iter
      (fun (p, _) -> Alcotest.(check bool) "a top-up is another tree's" true (home p <> home peer))
      topup;
    topups := !topups + List.length topup
  done;
  Alcotest.(check bool) "some answers needed a top-up" true (!topups > 0)

let test_leave () =
  let map, oracle, lmks, _ = make_workload ~seed:8 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  for peer = 0 to 9 do
    ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer))
  done;
  Server.leave server ~peer:3;
  Alcotest.(check int) "peer count" 9 (Server.peer_count server);
  Alcotest.(check bool) "gone" false (Server.mem server 3);
  List.iter
    (fun (p, _) -> Alcotest.(check bool) "departed peer not returned" true (p <> 3))
    (Server.neighbors server ~peer:0 ~k:9);
  Server.check_invariants server;
  Alcotest.check_raises "double leave" Not_found (fun () -> Server.leave server ~peer:3)

let test_handover () =
  let map, oracle, lmks, _ = make_workload ~seed:9 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  ignore (Server.join server ~client ~peer:0 ~attach_router:map.leaves.(0));
  let info = Server.handover server ~client ~peer:0 ~attach_router:map.leaves.(5) in
  Alcotest.(check int) "new attachment" map.leaves.(5) info.attach_router;
  Alcotest.(check int) "still one peer" 1 (Server.peer_count server);
  Server.check_invariants server;
  let trace = Server.trace server in
  Alcotest.(check int) "handover counted" 1 (Simkit.Trace.counter trace "handover");
  (* A handover re-runs the join round, so two joins are recorded. *)
  Alcotest.(check int) "joins counted" 2 (Simkit.Trace.counter trace "join");
  Alcotest.check_raises "handover unknown peer" Not_found (fun () ->
      ignore (Server.handover server ~client ~peer:42 ~attach_router:map.leaves.(0)))

let test_trace_counters () =
  let map, oracle, lmks, _ = make_workload ~seed:13 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  for peer = 0 to 4 do
    ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer))
  done;
  ignore (Server.neighbors server ~peer:0 ~k:2);
  Server.leave server ~peer:4;
  let trace = Server.trace server in
  Alcotest.(check int) "joins" 5 (Simkit.Trace.counter trace "join");
  Alcotest.(check int) "queries" 1 (Simkit.Trace.counter trace "query");
  Alcotest.(check int) "leaves" 1 (Simkit.Trace.counter trace "leave");
  Alcotest.(check bool) "probe packets recorded" true (Simkit.Trace.counter trace "probe_packets" > 0);
  (* Wire accounting: 5 path reports + 1 request/reply exchange, each a
     handful of bytes. *)
  let wire = Simkit.Trace.counter trace "wire_bytes" in
  Alcotest.(check bool) (Printf.sprintf "wire bytes sane (%d)" wire) true (wire > 30 && wire < 2000);
  match Simkit.Trace.stat trace "path_hops" with
  | Some s -> Alcotest.(check int) "one hop sample per join" 5 (Prelude.Stats.count s)
  | None -> Alcotest.fail "missing path_hops stat"

let test_matches_naive_reference () =
  (* Integration property: for peers sharing a landmark, the server's reply
     must equal an exhaustive-scan reference over the same recorded paths. *)
  let map, oracle, lmks, _ = make_workload ~seed:20 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  let naive_by_landmark = Hashtbl.create 8 in
  Array.iter
    (fun lmk -> Hashtbl.add naive_by_landmark lmk (Naive_registry.create ~landmark:lmk))
    lmks;
  let n = 60 in
  for peer = 0 to n - 1 do
    let info = Server.join server ~client ~peer ~attach_router:map.leaves.(peer) in
    let routers = Traceroute.Path.known_routers info.recorded_path in
    Naive_registry.insert (Hashtbl.find naive_by_landmark info.landmark) ~peer ~routers
  done;
  for peer = 0 to n - 1 do
    let info = Option.get (Server.info server peer) in
    let naive = Hashtbl.find naive_by_landmark info.landmark in
    let expected = Naive_registry.query_member naive ~peer ~k:4 in
    let got =
      Server.neighbors server ~peer ~k:4 |> List.filter (fun (_, d) -> d <> max_int)
    in
    (* The server may append cross-tree top-ups (distance max_int, filtered
       above); the same-tree prefix must match the reference exactly. *)
    let rec prefix a b =
      match (a, b) with
      | [], _ -> true
      | x :: xs, y :: ys -> x = y && prefix xs ys
      | _ :: _, [] -> false
    in
    Alcotest.(check bool)
      (Printf.sprintf "peer %d reply matches reference" peer)
      true
      (prefix got expected)
  done

let test_deterministic_without_rng () =
  let run () =
    let map, oracle, lmks, _ = make_workload ~seed:14 () in
    let server = Server.create oracle ~landmarks:lmks in
    let client = Client.create oracle ~landmarks:lmks in
    for peer = 0 to 29 do
      ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer))
    done;
    List.init 30 (fun peer -> Server.neighbors server ~peer ~k:4)
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

(* Model-based random-operation test: the server against a trivial
   reference model (set of registered peers), with structural invariants
   checked after every step. *)
let qcheck_server_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun p -> `Join (p mod 30)) small_nat);
          (2, map (fun p -> `Leave (p mod 30)) small_nat);
          (1, map (fun p -> `Handover (p mod 30)) small_nat);
          (2, map2 (fun p k -> `Query (p mod 30, 1 + (k mod 5))) small_nat small_nat);
        ])
  in
  QCheck.Test.make ~name:"server behaves like a registration-set model" ~count:60
    QCheck.(make Gen.(pair small_nat (list_size (int_range 1 40) op_gen)))
    (fun (seed, ops) ->
      let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 200) ~seed:3 in
      let oracle = Traceroute.Route_oracle.create map.graph in
      let rng = Prelude.Prng.create seed in
      let landmarks = Landmark.place map.graph Landmark.Medium_degree ~count:3 ~rng in
      let server = Server.create oracle ~landmarks in
      let client = Client.create oracle ~landmarks in
      let model = Hashtbl.create 32 in
      let router_of p = map.leaves.(p mod Array.length map.leaves) in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | `Join p ->
                if Hashtbl.mem model p then (
                  match Server.join server ~client ~peer:p ~attach_router:(router_of p) with
                  | exception Invalid_argument _ -> true
                  | _ -> false)
                else begin
                  ignore (Server.join server ~client ~peer:p ~attach_router:(router_of p));
                  Hashtbl.replace model p ();
                  true
                end
            | `Leave p ->
                if Hashtbl.mem model p then begin
                  Server.leave server ~peer:p;
                  Hashtbl.remove model p;
                  true
                end
                else ( match Server.leave server ~peer:p with
                  | exception Not_found -> true
                  | () -> false)
            | `Handover p ->
                if Hashtbl.mem model p then begin
                  ignore (Server.handover server ~client ~peer:p ~attach_router:(router_of (p + 7)));
                  true
                end
                else ( match Server.handover server ~client ~peer:p ~attach_router:(router_of p) with
                  | exception Not_found -> true
                  | _ -> false)
            | `Query (p, k) ->
                if Hashtbl.mem model p then begin
                  let reply = Server.neighbors server ~peer:p ~k in
                  List.length reply <= k
                  && List.for_all (fun (q, _) -> q <> p && Hashtbl.mem model q) reply
                end
                else ( match Server.neighbors server ~peer:p ~k with
                  | exception Not_found -> true
                  | _ -> false)
          in
          Server.check_invariants server;
          step_ok && Server.peer_count server = Hashtbl.length model)
        ops)

(* The landmark tree is the only store of a member's routers, so every
   registration path -- join, leave, handover and bucket repair, with
   lossy probes whose traces lose hops or stop short -- must leave views
   that rebuild exactly the stored routers. *)
let qcheck_views_rebuild_stored_routers =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun p -> `Join (p mod 40)) small_nat);
          (2, map (fun p -> `Leave (p mod 40)) small_nat);
          (1, map (fun p -> `Handover (p mod 40)) small_nat);
          (2, map2 (fun p replace -> `Repair (p mod 40, replace)) small_nat bool);
        ])
  in
  QCheck.Test.make ~name:"views rebuild the stored routers" ~count:40
    QCheck.(make Gen.(pair small_nat (list_size (int_range 1 30) op_gen)))
    (fun (seed, ops) ->
      let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 200) ~seed:4 in
      let oracle = Traceroute.Route_oracle.create map.graph in
      let rng = Prelude.Prng.create seed in
      let landmarks = Landmark.place map.graph Landmark.Medium_degree ~count:3 ~rng in
      let probe_config = { Traceroute.Probe.default_config with drop_prob = 0.3; max_ttl = 5 } in
      let create () = Server.create oracle ~landmarks in
      let client = Client.create ~probe_config oracle ~landmarks in
      let server = create () and source = create () in
      let router_of p = map.leaves.(p mod Array.length map.leaves) in
      (* The repair source holds every peer, each from another router. *)
      for p = 0 to 39 do
        ignore (Server.join ~rng source ~client ~peer:p ~attach_router:(router_of (p + 11)))
      done;
      List.iter
        (function
          | `Join p ->
              if not (Server.mem server p) then
                ignore (Server.join ~rng server ~client ~peer:p ~attach_router:(router_of p))
          | `Leave p -> if Server.mem server p then Server.leave server ~peer:p
          | `Handover p ->
              if Server.mem server p then
                ignore (Server.handover ~rng server ~client ~peer:p ~attach_router:(router_of (p + 7)))
          | `Repair (p, replace) -> (
              let bucket = Server.bucket_of p in
              let data = Server.snapshot_buckets source [ bucket ] in
              let replace = if replace then Some [ bucket ] else None in
              match Server.apply_buckets ?replace server data with
              | Ok _ -> ()
              | Error e -> failwith e))
        ops;
      Server.check_invariants server;
      List.for_all
        (fun p ->
          let info = Option.get (Server.info server p) in
          Traceroute.Path.known_routers info.recorded_path = Option.get (Server.path_of server p)
          && Traceroute.Path.anonymous_count info.recorded_path = 0)
        (Server.peer_ids server))

(* --- Batch registration ------------------------------------------------ *)

let test_register_measured_batch_matches_singletons () =
  let map, oracle, lmks, _ = make_workload ~seed:8 () in
  let batch_server = Server.create oracle ~landmarks:lmks in
  let loop_server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  let n = 40 in
  (* Deterministic measurement (no rng), so one measurement serves both
     servers. *)
  let entries =
    Array.init n (fun peer ->
        let attach = map.leaves.(peer mod Array.length map.leaves) in
        (peer, attach, Client.measure client ~attach_router:attach))
  in
  let infos = Server.register_measured_batch batch_server entries in
  Array.iter
    (fun (peer, attach_router, m) ->
      ignore (Server.register_measured loop_server ~peer ~attach_router m))
    entries;
  Server.check_invariants batch_server;
  Alcotest.(check int) "peer count" n (Server.peer_count batch_server);
  Array.iteri
    (fun i (peer, _, _) ->
      match Server.info batch_server peer with
      | None -> Alcotest.fail (Printf.sprintf "peer %d missing" peer)
      | Some info -> Alcotest.(check bool) "info in entry order" true (info = infos.(i)))
    entries;
  (* Per-peer counters must match n singleton registrations exactly; the
     wire accounting must NOT — one packed batch report costs less than n
     separate ones.  Checked before any [neighbors] call touches the
     query/wire counters. *)
  let c name s = Simkit.Trace.counter (Server.trace s) name in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " counter") (c name loop_server) (c name batch_server))
    [ "join"; "probe_packets" ];
  Alcotest.(check bool) "batched wire bytes cheaper" true
    (c "wire_bytes" batch_server < c "wire_bytes" loop_server);
  for peer = 0 to n - 1 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "neighbors %d identical" peer)
      (Server.neighbors loop_server ~peer ~k:4)
      (Server.neighbors batch_server ~peer ~k:4)
  done;
  (* A batch containing any registered peer is rejected before anything is
     applied. *)
  let fresh_attach = map.leaves.(0) in
  let bad =
    [|
      (n + 1, fresh_attach, Client.measure client ~attach_router:fresh_attach);
      (0, fresh_attach, Client.measure client ~attach_router:fresh_attach);
    |]
  in
  (match Server.register_measured_batch batch_server bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate batch accepted");
  Alcotest.(check int) "nothing applied" n (Server.peer_count batch_server)

(* A batch with a peer outside [0, 2^31) in its middle is refused before
   the first write: no landmark tree takes the peers before it, and they
   can register afterwards. *)
let test_batch_out_of_range_writes_nothing () =
  let map, oracle, lmks, _ = make_workload ~routers:300 ~landmarks:4 ~seed:8 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  let entry peer =
    let attach = map.leaves.(peer mod Array.length map.leaves) in
    (peer, attach, Client.measure client ~attach_router:attach)
  in
  Alcotest.check_raises "refused" (Invalid_argument "Server.register_measured: peer out of range")
    (fun () -> ignore (Server.register_measured_batch server (Array.map entry [| 1; 2; 1 lsl 31; 4 |])));
  Alcotest.(check int) "nothing registered" 0 (Server.peer_count server);
  Server.check_invariants server;
  ignore (Server.register_measured_batch server (Array.map entry [| 1; 2; 4 |]));
  Alcotest.(check int) "registered afterwards" 3 (Server.peer_count server);
  Server.check_invariants server

(* A partial snapshot naming a peer no registry could hold is malformed,
   and nothing of it is applied: not even the valid entry before it. *)
let test_snapshot_peer_out_of_range () =
  let map, oracle, lmks, _ = make_workload ~seed:8 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  let info = Server.join server ~client ~peer:3 ~attach_router:map.leaves.(0) in
  let entry w peer =
    let open Prelude.Codec.Writer in
    varint w peer;
    varint w info.attach_router;
    varint w info.landmark;
    varint w info.probes_spent;
    bytes w (Wire.encode (Wire.Path_report { peer; path = info.recorded_path }))
  in
  let w = Prelude.Codec.Writer.create () in
  Prelude.Codec.Writer.list w (entry w) [ 5; 1 lsl 31 ];
  let before = Server.digest server in
  (match Server.apply_buckets server (Prelude.Codec.Writer.contents w) with
  | Error msg -> Alcotest.(check string) "malformed" "malformed input: snapshot peer out of range" msg
  | Ok _ -> Alcotest.fail "out-of-range peer applied");
  Alcotest.(check int) "peer count" 1 (Server.peer_count server);
  Alcotest.(check bool) "digest unchanged" true (Int64.equal before (Server.digest server));
  Server.check_invariants server

(* On a warmed server, a query and a leave allocate the same words at 1k
   and at 64k members: the peer index is probed, not walked, and a leave
   frees slots without allocating per member. *)
let test_query_and_leave_words_flat_in_members () =
  let map, oracle, lmks, _ = make_workload ~routers:300 ~landmarks:4 ~seed:9 () in
  let words members =
    let server = Server.create oracle ~landmarks:lmks in
    let client = Client.create oracle ~landmarks:lmks in
    let memo = Hashtbl.create 64 in
    let entry peer =
      let attach = map.leaves.(peer mod Array.length map.leaves) in
      let m =
        match Hashtbl.find_opt memo attach with
        | Some m -> m
        | None ->
            let m = Client.measure client ~attach_router:attach in
            Hashtbl.add memo attach m;
            m
      in
      (peer, attach, m)
    in
    ignore (Server.register_measured_batch server (Array.init members entry));
    (* Warm-up: one round of leaves and rejoins grows the free-slot stacks
       the measured leaves use. *)
    for peer = 200 to 455 do
      Server.leave server ~peer
    done;
    ignore (Server.register_measured_batch server (Array.init 256 (fun i -> entry (200 + i))));
    let per n f =
      let before = Gc.minor_words () in
      for i = 0 to n - 1 do
        f i
      done;
      (Gc.minor_words () -. before) /. float_of_int n
    in
    let query = per 500 (fun i -> ignore (Server.neighbors server ~peer:(i * 2) ~k:5)) in
    let leave = per 200 (fun peer -> Server.leave server ~peer) in
    Server.check_invariants server;
    (query, leave)
  in
  let q1, l1 = words 1_000 and q64, l64 = words 64_000 in
  Alcotest.(check (float 0.5)) (Printf.sprintf "query words %.2f / %.2f" q1 q64) q1 q64;
  Alcotest.(check (float 0.5)) (Printf.sprintf "leave words %.2f / %.2f" l1 l64) l1 l64

let test_neighbors_allocation_flat_in_hops () =
  let _, oracle, _, _ = make_workload ~seed:5 () in
  let landmark = 0 and k = 4 in
  let server = Server.create oracle ~landmarks:[| landmark |] in
  let register peer routers =
    let src = List.hd routers in
    Server.register_replica server ~peer ~attach_router:src ~landmark
      ~path:(Traceroute.Path.of_routers ~src ~dst:landmark routers)
      ~probes_spent:0
  in
  let short = [ 10; 11; 12; landmark ] and long = List.init 12 (fun i -> 20 + i) @ [ landmark ] in
  for i = 0 to k do
    register i short;
    register (100 + i) long
  done;
  let words peer =
    ignore (Server.neighbors server ~peer ~k);
    let before = Gc.minor_words () in
    ignore (Server.neighbors server ~peer ~k);
    Gc.minor_words () -. before
  in
  Alcotest.(check (list int)) "hops" [ 3; 12 ]
    (List.map (fun p -> Array.length (Option.get (Server.path_of server p)) - 1) [ 0; 100 ]);
  Alcotest.(check (float 0.0)) "same words for 3 and 12 hops" (words 0) (words 100)

(* The server's state per member, the route oracle's excluded: the peer
   index and per-slot arrays, the landmark trees (which alone hold the
   routers) and the bucket index.  272 B per member measured, and the
   bound is 5% above it; with a member record in a hash table, and a tree
   path record in another, the same population held 387 B, and with a
   second copy of each path (a boxed recorded path per member) and a
   separate stamp table, 599 B. *)
let test_state_bytes_per_member () =
  let map, oracle, lmks, _ = make_workload ~seed:8 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  let members = 2_000 in
  for peer = 0 to members - 1 do
    ignore
      (Server.join server ~client ~peer ~attach_router:map.leaves.(peer mod Array.length map.leaves))
  done;
  let bytes =
    8 * (Obj.reachable_words (Obj.repr server) - Obj.reachable_words (Obj.repr oracle)) / members
  in
  Alcotest.(check bool) (Printf.sprintf "%d B per member" bytes) true (bytes <= 285)

(* Replication by prefix: a replica applying what [replication_prefix]
   says for each join (the full report where it says [None]), in join order, ends holding exactly the primary's
   registrations, while most joins travel as a prefix and a donor.  The
   donor's stored route must match from the meeting router on: with
   truncated or lossy traces, two routes through one router need not
   (stored routes skip what the tool dropped), and the walk goes on up. *)
let test_prefix_replication_completes_routes () =
  let map, oracle, lmks, _ = make_workload ~seed:12 () in
  let check label ?truncate ?probe_config ?rng () =
    let primary = Server.create oracle ~landmarks:lmks in
    let replica = Server.create oracle ~landmarks:lmks in
    let client = Client.create ?truncate ?probe_config oracle ~landmarks:lmks in
    let prefixes = ref 0 and prefix_bytes = ref 0 and report_bytes = ref 0 in
    let reports = ref 0 and past_attach = ref 0 in
    for peer = 0 to 79 do
      let attach_router = map.leaves.(peer mod Array.length map.leaves) in
      let m = Client.measure ?rng client ~attach_router in
      ignore (Server.register_measured primary ~peer ~attach_router m);
      let report = Wire.Path_report { peer; path = m.path } in
      report_bytes := !report_bytes + Wire.byte_size report;
      match Server.replication_prefix primary ~peer with
      | Some (Wire.Replica_prefix { peer = p; donor; probes; prefix } as msg) ->
          incr prefixes;
          if Array.length prefix > 1 then incr past_attach;
          prefix_bytes := !prefix_bytes + Wire.byte_size msg;
          Alcotest.(check int) (label ^ ": names the peer") peer p;
          Alcotest.(check bool) (label ^ ": completed") true
            (Server.register_replica_prefix replica ~peer ~donor ~prefix ~probes_spent:probes)
      | None ->
          incr reports;
          Server.register_replica replica ~peer ~attach_router ~landmark:m.landmark ~path:m.path
            ~probes_spent:m.probes
      | _ -> Alcotest.fail "unexpected replication message"
    done;
    Alcotest.(check bool) (label ^ ": a tree's first member goes whole") true (!reports >= 1);
    Alcotest.(check bool) (label ^ ": most joins go as a prefix") true (!prefixes > 60);
    Alcotest.(check bool) (label ^ ": some prefixes run past the attach router") true
      (!past_attach > 0);
    Alcotest.(check bool)
      (Printf.sprintf "%s: prefixes %dB against %dB of reports" label !prefix_bytes !report_bytes)
      true (!prefix_bytes < !report_bytes);
    Alcotest.(check int64) (label ^ ": same digest") (Server.digest primary) (Server.digest replica);
    for peer = 0 to 79 do
      Alcotest.(check bool)
        (Printf.sprintf "%s: peer %d registration identical" label peer)
        true
        (Server.info primary peer = Server.info replica peer)
    done;
    Server.check_invariants replica
  in
  check "full traces" ();
  check "every other hop" ~truncate:(Traceroute.Truncate.Every_k 2) ();
  check "lossy probes"
    ~probe_config:{ Traceroute.Probe.default_config with drop_prob = 0.3 }
    ~rng:(Prelude.Prng.create 5) ()

(* What a replica refuses, changing nothing: an unknown donor, a donor
   whose route misses the prefix's last router, an empty prefix, a router
   outside the map.  A held peer is an error, as for a full report. *)
let test_prefix_replication_refusals () =
  let map, oracle, lmks, _ = make_workload ~seed:13 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  let attach_router = map.leaves.(0) in
  ignore (Server.join server ~client ~peer:0 ~attach_router);
  let routers = Option.get (Server.path_of server 0) in
  let off_route =
    let rec find r = if Array.mem r routers then find (r + 1) else r in
    find 0
  in
  let digest = Server.digest server in
  let refuse what ~donor prefix =
    Alcotest.(check bool) what false
      (Server.register_replica_prefix server ~peer:1 ~donor ~prefix ~probes_spent:3);
    Alcotest.(check int) (what ^ ": nothing stored") 1 (Server.peer_count server);
    Alcotest.(check int64) (what ^ ": digest kept") digest (Server.digest server)
  in
  refuse "unknown donor" ~donor:9 [| attach_router |];
  refuse "router off the donor's route" ~donor:0 [| off_route |];
  refuse "empty prefix" ~donor:0 [||];
  refuse "router outside the map" ~donor:0 [| off_route; 1_000_000 |];
  Alcotest.check_raises "held peer"
    (Invalid_argument "Server.register_replica_prefix: peer already registered") (fun () ->
      ignore
        (Server.register_replica_prefix server ~peer:0 ~donor:0 ~prefix:[| attach_router |]
           ~probes_spent:3));
  (* The completion itself: a new router, then the donor's route. *)
  Alcotest.(check bool) "completes" true
    (Server.register_replica_prefix server ~peer:1 ~donor:0
       ~prefix:[| off_route; routers.(1) |] ~probes_spent:3);
  Alcotest.(check (option (array int))) "prefix then the donor's tail"
    (Some (Array.append [| off_route |] (Array.sub routers 1 (Array.length routers - 1))))
    (Server.path_of server 1);
  Alcotest.(check (option int)) "attach router from the prefix" (Some off_route)
    (Server.attach_router server 1);
  Server.check_invariants server;
  (* A backend without a router index, and a route not starting at the
     attach router, both go out whole. *)
  let naive = Server.create ~backend:(module Naive_registry) oracle ~landmarks:lmks in
  let other = Server.create oracle ~landmarks:lmks in
  for peer = 0 to 9 do
    let attach_router = map.leaves.(peer mod 2) in
    let m = Client.measure client ~attach_router in
    ignore (Server.register_measured naive ~peer ~attach_router m);
    ignore (Server.register_measured other ~peer ~attach_router:map.leaves.(2) m);
    Alcotest.(check bool) "naive: the report" true (Server.replication_prefix naive ~peer = None);
    Alcotest.(check bool) "moved attach router: the report" true
      (Server.replication_prefix other ~peer = None)
  done

(* A broken backend: the path tree, but each path is stored without its
   first router.  Its own structure stays sound, so only the server's
   content check against the registrations can tell. *)
module Clipped_tree : Registry_intf.S = struct
  include Path_tree

  let backend_name = "clipped"

  let clip routers =
    let n = Array.length routers in
    if n > 1 then Array.sub routers 1 (n - 1) else routers

  let insert t ~peer ~routers = Path_tree.insert t ~peer ~routers:(clip routers)

  include Registry_intf.Derive_batch (struct
    type nonrec t = t

    let landmark = landmark
    let mem = mem
    let insert = insert
  end)
end

let test_invariants_check_content () =
  let map, oracle, lmks, _ = make_workload ~seed:7 () in
  let fill backend =
    let server = Server.create ~backend oracle ~landmarks:lmks in
    let client = Client.create oracle ~landmarks:lmks in
    for peer = 0 to 9 do
      ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer))
    done;
    server
  in
  Server.check_invariants (fill (module Path_tree));
  match Server.check_invariants (fill (module Clipped_tree)) with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "a backend storing clipped paths passed the invariants"

(* Trace cells are resolved at their first write: one join and its query
   create exactly the names a per-name write created, and none of the
   names the join never writes (leave, handover, replica and top-up
   counters, registry removes). *)
let test_trace_names_after_one_join () =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 400) ~seed:3 in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let rng = Prelude.Prng.create 3 in
  let lmks = Landmark.place map.graph Landmark.Medium_degree ~count:4 ~rng in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create oracle ~landmarks:lmks in
  Alcotest.(check (list string)) "fresh server writes nothing" []
    (List.map fst (Simkit.Trace.counters (Server.trace server)));
  ignore (Server.join server ~client ~peer:0 ~attach_router:map.leaves.(0));
  ignore (Server.neighbors server ~peer:0 ~k:5);
  let trace = Server.trace server in
  Alcotest.(check (list (pair string int)))
    "counters"
    [
      ("join", 1);
      ("probe_packets", 9);
      ("query", 1);
      ("registry_insert", 1);
      ("registry_query", 1);
      ("report_refresh", 1);
      ("wire_bytes", 25);
    ]
    (Simkit.Trace.counters trace);
  Alcotest.(check (list (pair string int)))
    "streams"
    [ ("join_ms", 1); ("path_hops", 1); ("ping_round_ms", 1); ("traceroute_ms", 1) ]
    (List.map (fun (name, (s : Simkit.Trace.summary)) -> (name, s.count)) (Simkit.Trace.summaries trace))

(* The first round's server side: an empty tree asks for the rest and
   registers nothing; a prefix that reached the landmark registers as it
   is; once the tree holds a prefix router, the route completed from it is
   the one a full trace records, and the info is the stored route's, as a
   retry's re-answer gives it.  A backend without a router index always
   asks for the rest. *)
let test_register_prefix () =
  let map, oracle, lmks, _ = make_workload ~seed:31 () in
  let client = Client.create oracle ~landmarks:lmks in
  let first_round server peer attach_router =
    let m = Client.measure_join client ~attach_router in
    (m, Server.register_prefix server ~peer ~attach_router ~prefix:(Client.prefix m) m)
  in
  let long_route r =
    let m = Client.measure client ~attach_router:r in
    m.full_hops > Client.prefix_hops
  in
  let leaves = Array.of_list (List.filter long_route (Array.to_list map.leaves)) in
  let server = Server.create oracle ~landmarks:lmks in
  let m0, answer = first_round server 0 leaves.(0) in
  Alcotest.(check bool) "empty tree: continue" true (answer = None);
  Alcotest.(check int) "nothing registered" 0 (Server.peer_count server);
  Alcotest.(check int) "counted" 1 (Simkit.Trace.counter (Server.trace server) "join_continue");
  ignore (Server.register_measured server ~peer:0 ~attach_router:leaves.(0) m0);
  (* A reference of full traces, joined in the same order. *)
  let reference = Server.create oracle ~landmarks:lmks in
  ignore (Server.join reference ~client ~peer:0 ~attach_router:leaves.(0));
  let completed = ref 0 in
  for peer = 1 to 40 do
    let attach_router = leaves.(peer * 13 mod Array.length leaves) in
    ignore (Server.join reference ~client ~peer ~attach_router);
    match first_round server peer attach_router with
    | m, Some info ->
        incr completed;
        Alcotest.(check int) "the trace's probes" m.probes info.probes_spent;
        Alcotest.(check bool) "info = the stored route's" true (Some info = Server.info server peer);
        Alcotest.(check (option (array int)))
          (Printf.sprintf "peer %d: the full trace's route" peer)
          (Server.path_of reference peer) (Server.path_of server peer)
    | m, None -> ignore (Server.register_measured server ~peer ~attach_router m)
  done;
  Alcotest.(check bool) (Printf.sprintf "some first rounds complete (%d of 40)" !completed) true (!completed > 10);
  Alcotest.(check string) "same digest as full traces"
    (Printf.sprintf "%Lx" (Server.digest reference))
    (Printf.sprintf "%Lx" (Server.digest server));
  Server.check_invariants server;
  Alcotest.check_raises "already registered"
    (Invalid_argument "Server.register_prefix: peer already registered") (fun () ->
      ignore (first_round server 0 leaves.(0)));
  (* A route no longer than the prefix needs no donor. *)
  (match
     List.find_opt
       (fun r -> not (long_route r))
       (Array.to_list (Array.init (Topology.Graph.node_count map.graph) Fun.id))
   with
  | Some r ->
      let fresh = Server.create oracle ~landmarks:lmks in
      let _, answer = first_round fresh 0 r in
      Alcotest.(check bool) "reached the landmark: registered" true (answer <> None);
      Alcotest.(check (option (array int))) "its own route"
        (Some (Traceroute.Route_oracle.route_array oracle ~src:r
                 ~dst:(Client.measure client ~attach_router:r).landmark))
        (Server.path_of fresh 0)
  | None -> Alcotest.fail "no short route");
  let naive = Server.create ~backend:(module Naive_registry) oracle ~landmarks:lmks in
  ignore (Server.join naive ~client ~peer:0 ~attach_router:leaves.(0));
  let _, answer = first_round naive 1 leaves.(0) in
  Alcotest.(check bool) "no router index: continue" true (answer = None)

let suite =
  ( "server",
    [
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "join registers" `Quick test_join_registers;
      Alcotest.test_case "batch registration = singletons" `Quick
        test_register_measured_batch_matches_singletons;
      Alcotest.test_case "join picks closest landmark" `Quick test_join_picks_closest_landmark;
      Alcotest.test_case "join duplicate" `Quick test_join_duplicate;
      Alcotest.test_case "batch with an out-of-range peer writes nothing" `Quick
        test_batch_out_of_range_writes_nothing;
      Alcotest.test_case "snapshot peer out of range" `Quick test_snapshot_peer_out_of_range;
      Alcotest.test_case "query and leave words flat in members" `Quick
        test_query_and_leave_words_flat_in_members;
      Alcotest.test_case "neighbors sane" `Quick test_neighbors_sane;
      Alcotest.test_case "neighbors unknown" `Quick test_neighbors_unknown_peer;
      Alcotest.test_case "cross-tree top-up" `Quick test_cross_tree_topup;
      Alcotest.test_case "leave" `Quick test_leave;
      Alcotest.test_case "handover" `Quick test_handover;
      Alcotest.test_case "trace counters" `Quick test_trace_counters;
      Alcotest.test_case "matches naive reference" `Quick test_matches_naive_reference;
      Alcotest.test_case "deterministic" `Quick test_deterministic_without_rng;
      Alcotest.test_case "invariants check content" `Quick test_invariants_check_content;
      Alcotest.test_case "prefix replication completes routes" `Quick
        test_prefix_replication_completes_routes;
      Alcotest.test_case "prefix replication refusals" `Quick test_prefix_replication_refusals;
      Alcotest.test_case "register prefix" `Quick test_register_prefix;
      Alcotest.test_case "neighbors allocation flat in hops" `Quick
        test_neighbors_allocation_flat_in_hops;
      Alcotest.test_case "state bytes per member" `Quick test_state_bytes_per_member;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) qcheck_server_model;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
        qcheck_views_rebuild_stored_routers;
      Alcotest.test_case "trace names after one join" `Quick test_trace_names_after_one_join;
    ] )
