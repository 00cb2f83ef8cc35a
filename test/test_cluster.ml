(* Cluster: replicated management tier — 1-replica equivalence with a plain
   server, write fan-out, crash/failover, anti-entropy, and join
   termination under loss. *)

let detector_config =
  { Simkit.Failure_detector.heartbeat_period_ms = 100.0; timeout_ms = 350.0; heartbeat_bytes = 32 }

let rpc_config =
  {
    Simkit.Rpc.timeout_ms = 100.0;
    max_attempts = 4;
    backoff_base_ms = 50.0;
    backoff_multiplier = 2.0;
    jitter_frac = 0.0;
  }

type fixture = {
  map : Topology.Gen_magoni.t;
  oracle : Traceroute.Route_oracle.t;
  landmarks : Topology.Graph.node array;
  replica_routers : Topology.Graph.node array;
  engine : Simkit.Engine.t;
  transport : Simkit.Transport.t;
}

let fixture ?(routers = 300) ?(replicas = 3) ?rng ?loss_prob ?metrics ~seed () =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params routers) ~seed in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let place_rng = Prelude.Prng.create (seed + 1000) in
  let landmarks =
    Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:3 ~rng:place_rng
  in
  let replica_routers =
    Nearby.Landmark.place map.graph Nearby.Landmark.High_degree ~count:replicas ~rng:place_rng
  in
  let engine = Simkit.Engine.create () in
  let transport = Simkit.Transport.create ?rng ?loss_prob ?metrics engine oracle in
  { map; oracle; landmarks; replica_routers; engine; transport }

let make_server fx () = Nearby.Server.create fx.oracle ~landmarks:fx.landmarks
let make_client fx = Nearby.Client.create fx.oracle ~landmarks:fx.landmarks

let make_cluster ?(detector_config = detector_config) fx =
  Nearby.Cluster.create ~detector_config ~transport:fx.transport
    ~client_router:fx.map.core.(0) ~make_server:(make_server fx)
    ~routers:fx.replica_routers ()

(* Run [peers] joins through [protocol], one every [spacing] ms, and return
   (completed replies by peer, failed count). *)
let run_joins ?(spacing = 10.0) fx protocol ~peers ~k ~horizon =
  let replies = Hashtbl.create peers in
  let failed = ref 0 in
  for peer = 0 to peers - 1 do
    Simkit.Engine.schedule_at fx.engine ~time:(float_of_int peer *. spacing) (fun () ->
        Nearby.Protocol.join protocol ~peer
          ~attach_router:fx.map.leaves.(peer mod Array.length fx.map.leaves)
          ~k
          ~on_complete:(fun _info reply -> Hashtbl.replace replies peer reply)
          ~on_failure:(fun () -> incr failed))
  done;
  Simkit.Engine.run fx.engine ~until:horizon;
  (replies, !failed)

(* Arrival spacing wide enough that every join finishes before the next
   one starts (join delays are tens of ms on these maps): registration
   order is then the arrival order in every implementation, so replies can
   be compared content-for-content. *)
let serial_spacing = 500.0

(* A lone server: [Cluster.single] on the fixture's transport, behind the
   RPC layer. *)
let single_protocol fx server =
  let cluster = Nearby.Cluster.single ~transport:fx.transport ~router:fx.replica_routers.(0) server in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  (cluster, rpc, Nearby.Protocol.create_resilient ~rpc cluster)

(* The join's rounds in process, without the RPC layer: the first-round
   prefix, and the whole trace when the server asks for the rest.  The
   request bytes the neighbor query adds: none after a first round, whose
   frame carried [k]. *)
let join_in_process server ~client ~peer ~attach_router ~k =
  let m = Nearby.Client.measure_join client ~attach_router in
  let prefix = Nearby.Client.prefix m in
  let bytes =
    Nearby.Wire.byte_size
      (Nearby.Wire.Path_prefix { peer; k; landmark = m.landmark; probes = m.probes; prefix })
  in
  match Nearby.Server.register_prefix server ~peer ~attach_router ~prefix ~bytes m with
  | Some _ -> 0
  | None ->
      ignore (Nearby.Server.register_measured server ~peer ~attach_router m);
      Nearby.Wire.neighbor_request_size ~peer ~k

(* A 1-replica cluster behind the RPC layer on a clean network keeps the
   replies, the registered state and the server accounting of a plain
   server taking the same rounds: the RPC machinery must not change
   results, only survive faults. *)
let check_matches_plain_server label fx (cluster, rpc, protocol) =
  let peers = 15 and k = 4 in
  let reference_fx = fixture ~replicas:1 ~seed:22 () in
  let reference = make_server reference_fx () in
  let client = make_client reference_fx in
  let expected =
    List.init peers (fun peer ->
        let request_bytes =
          join_in_process reference ~client ~peer
            ~attach_router:reference_fx.map.leaves.(peer mod Array.length reference_fx.map.leaves)
            ~k
        in
        fst (Nearby.Server.sized_neighbors reference ~peer ~k ~request_bytes))
  in
  let replies, failed =
    run_joins ~spacing:serial_spacing fx protocol ~peers ~k ~horizon:60_000.0
  in
  Alcotest.(check int) (label ^ ": no failures") 0 failed;
  Alcotest.(check int) (label ^ ": all completed") peers (Hashtbl.length replies);
  List.iteri
    (fun peer expect ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s: peer %d reply identical" label peer)
        expect (Hashtbl.find replies peer))
    expected;
  (* Byte-identical registered state: same landmark, same recorded path,
     same probe cost for every peer. *)
  let server = Nearby.Cluster.server_of cluster 0 in
  for peer = 0 to peers - 1 do
    let info s = Option.get (Nearby.Server.info s peer) in
    let a = info reference and b = info server in
    Alcotest.(check bool)
      (Printf.sprintf "%s: peer %d registration identical" label peer)
      true
      (a.landmark = b.landmark && a.recorded_path = b.recorded_path
     && a.probes_spent = b.probes_spent && a.attach_router = b.attach_router)
  done;
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s counter identical" label name)
        (Simkit.Trace.counter (Nearby.Server.trace reference) name)
        (Simkit.Trace.counter (Nearby.Server.trace server) name))
    [ "join"; "join_continue"; "query"; "probe_packets"; "wire_bytes" ];
  Alcotest.(check int)
    (label ^ ": single attempt per round")
    (peers + Simkit.Trace.counter (Nearby.Server.trace reference) "join_continue")
    (Simkit.Trace.counter (Simkit.Rpc.trace rpc) "rpc_attempts")

let test_single_matches_plain_server () =
  let fx = fixture ~replicas:1 ~seed:22 () in
  check_matches_plain_server "single" fx (single_protocol fx (make_server fx ()))

let test_one_replica_create_matches_plain_server () =
  (* [create] adds a failure detector; with one replica it must change
     nothing either. *)
  let fx = fixture ~replicas:1 ~seed:22 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  check_matches_plain_server "create" fx
    (cluster, rpc, Nearby.Protocol.create_resilient ~rpc cluster)

let test_fan_out_replicates_to_all () =
  let fx = fixture ~seed:23 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  let peers = 20 in
  let _, failed = run_joins fx protocol ~peers ~k:4 ~horizon:60_000.0 in
  Alcotest.(check int) "no failures" 0 failed;
  (* Loss-free network: the write fan-out alone (no anti-entropy ran) must
     land every registration on every replica. *)
  for i = 0 to Nearby.Cluster.replica_count cluster - 1 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d holds all peers" i)
      peers
      (Nearby.Server.peer_count (Nearby.Cluster.server_of cluster i))
  done;
  Alcotest.(check bool) "consistent" true (Nearby.Cluster.consistent cluster);
  Nearby.Cluster.check_invariants cluster;
  let trace = Nearby.Cluster.trace cluster in
  Alcotest.(check int) "2 replication sends per join" (peers * 2)
    (Simkit.Trace.counter trace "cluster_replicate_send");
  Alcotest.(check int) "all applied" (peers * 2)
    (Simkit.Trace.counter trace "cluster_replicate_apply")

let test_crash_primary_fails_over () =
  (* Replica 0 is down across the middle of the arrival window; joins keep
     completing via the other replicas and the cluster converges once the
     primary is restored and a sync round runs. *)
  let fx = fixture ~seed:24 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  Simkit.Engine.schedule_at fx.engine ~time:50.0 (fun () -> Nearby.Cluster.crash cluster 0);
  Simkit.Engine.schedule_at fx.engine ~time:2_000.0 (fun () -> Nearby.Cluster.recover cluster 0);
  let peers = 30 in
  let replies, failed = run_joins fx protocol ~peers ~k:4 ~horizon:60_000.0 in
  Alcotest.(check int) "every join completed" peers (Hashtbl.length replies);
  Alcotest.(check int) "none failed" 0 failed;
  Nearby.Cluster.sync_round cluster;
  Alcotest.(check bool) "consistent after sync" true (Nearby.Cluster.consistent cluster);
  for i = 0 to Nearby.Cluster.replica_count cluster - 1 do
    Alcotest.(check bool) (Printf.sprintf "replica %d live" i) true (Nearby.Cluster.is_alive cluster i);
    Alcotest.(check int)
      (Printf.sprintf "replica %d holds all peers" i)
      peers
      (Nearby.Server.peer_count (Nearby.Cluster.server_of cluster i))
  done;
  Nearby.Cluster.check_invariants cluster

let test_anti_entropy_heals_stale_replica () =
  (* Replica 2 is dead for the whole arrival window, so it misses every
     fan-out write; one sync round after recovery rebuilds it from a
     snapshot of the most complete replica. *)
  let fx = fixture ~seed:25 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  Nearby.Cluster.crash cluster 2;
  let peers = 20 in
  let _, failed = run_joins fx protocol ~peers ~k:4 ~horizon:60_000.0 in
  Alcotest.(check int) "no failures" 0 failed;
  Nearby.Cluster.recover cluster 2;
  Alcotest.(check int) "stale replica missed the writes" 0
    (Nearby.Server.peer_count (Nearby.Cluster.server_of cluster 2));
  Alcotest.(check bool) "inconsistent before sync" false (Nearby.Cluster.consistent cluster);
  Nearby.Cluster.sync_round cluster;
  Alcotest.(check bool) "consistent after sync" true (Nearby.Cluster.consistent cluster);
  Alcotest.(check int) "healed" peers
    (Nearby.Server.peer_count (Nearby.Cluster.server_of cluster 2));
  let trace = Nearby.Cluster.trace cluster in
  Alcotest.(check int) "one straggler repaired" 1
    (Simkit.Trace.counter trace "cluster_sync_restores");
  Alcotest.(check int) "repair wrote every missed entry" peers
    (Simkit.Trace.counter trace "cluster_sync_repaired");
  Alcotest.(check bool) "only the buckets holding them moved" true
    (let buckets = Simkit.Trace.counter trace "cluster_sync_buckets" in
     buckets >= 1 && buckets <= peers);
  Alcotest.(check bool) "recovery time recorded" true
    (match Simkit.Trace.summary trace "cluster_recovery_ms" with
    | Some s -> s.count = 1
    | None -> false);
  Nearby.Cluster.check_invariants cluster

let test_consistent_compares_paths () =
  (* Same peer ids everywhere, but replica 0 recorded peer 0 from another
     attachment router: the content differs, so the cluster is not
     consistent until a sync round repairs it. *)
  let fx = fixture ~seed:28 () in
  let cluster = make_cluster fx in
  let leaves = fx.map.leaves in
  let client = make_client fx in
  for i = 0 to Nearby.Cluster.replica_count cluster - 1 do
    let server = Nearby.Cluster.server_of cluster i in
    for peer = 0 to 5 do
      let attach = if peer = 0 && i = 0 then leaves.(Array.length leaves - 1) else leaves.(peer) in
      ignore (Nearby.Server.join server ~client ~peer ~attach_router:attach)
    done
  done;
  let server i = Nearby.Cluster.server_of cluster i in
  Alcotest.(check (list int)) "same peer ids" (Nearby.Server.peer_ids (server 0))
    (Nearby.Server.peer_ids (server 1));
  Alcotest.(check bool) "different content" false (Nearby.Cluster.consistent cluster);
  Nearby.Cluster.sync_round cluster;
  Alcotest.(check bool) "consistent after sync" true (Nearby.Cluster.consistent cluster);
  Nearby.Cluster.check_invariants cluster

(* 10,000 members on every replica but 8 of them withheld from one: the
   repair must cost the differing buckets, not the member count. *)
let test_repair_bytes_scale_with_the_difference () =
  let metrics = Simkit.Metrics.create () in
  let fx = fixture ~metrics ~seed:29 () in
  let cluster = make_cluster fx in
  let members = 10_000 and withheld = 8 in
  let client = make_client fx in
  let entries =
    Array.init members (fun peer ->
        let attach_router = fx.map.leaves.(peer mod Array.length fx.map.leaves) in
        (peer, attach_router, Nearby.Client.measure client ~attach_router))
  in
  for i = 0 to 2 do
    let held = if i = 2 then Array.sub entries withheld (members - withheld) else entries in
    Array.iter
      (fun (peer, attach_router, (m : Nearby.Client.measurement)) ->
        Nearby.Server.register_replica (Nearby.Cluster.server_of cluster i) ~peer ~attach_router
          ~landmark:m.landmark ~path:m.path ~probes_spent:m.probes)
      held
  done;
  let snapshot_bytes =
    String.length (Nearby.Server.snapshot (Nearby.Cluster.server_of cluster 0))
  in
  Nearby.Cluster.sync_round cluster;
  let moved =
    List.fold_left
      (fun acc (name, labels, _) ->
        if name = "wire_bytes_total" && List.assoc_opt "kind" labels = Some "snapshot" then
          acc + Simkit.Metrics.counter metrics name ~labels
        else acc)
      0 (Simkit.Metrics.series metrics)
  in
  Alcotest.(check bool) "replicas reconverged" true (Nearby.Cluster.consistent cluster);
  Alcotest.(check bool)
    (Printf.sprintf "repair moved %d B, under 5%% of a %d B snapshot" moved snapshot_bytes)
    true
    (moved > 0 && moved * 20 < snapshot_bytes);
  Alcotest.(check int) "the repair bytes are the ones charged" moved
    (Simkit.Trace.counter (Nearby.Cluster.trace cluster) "cluster_sync_bytes");
  Alcotest.(check int) "every withheld entry repaired" withheld
    (Simkit.Trace.counter (Nearby.Cluster.trace cluster) "cluster_sync_repaired")

(* --- Delta repair = full restore, on random replica states ------------- *)

(* Per peer and replica: absent, or registered from one of two attachment
   routers (two recorded paths for the same id). *)
type slot = Absent | Version of int

let gen_states =
  let open QCheck.Gen in
  let slot = frequency [ (2, return Absent); (3, return (Version 0)); (1, return (Version 1)) ] in
  let free = list_size (int_bound 30) (triple slot slot slot) in
  frequency
    [
      (4, free);
      (* Replica 2 down for the whole window: it holds nothing. *)
      (1, map (List.map (fun (a, b, _) -> (a, b, Absent))) free);
      (* Already equal. *)
      (1, map (List.map (fun (a, _, _) -> (a, a, a))) free);
    ]

let print_states states =
  let s = function Absent -> "-" | Version v -> string_of_int v in
  String.concat " " (List.map (fun (a, b, c) -> s a ^ s b ^ s c) states)

let qcheck_delta_repair_matches_full_restore =
  let fx0 = lazy (fixture ~seed:30 ()) in
  let measured = Hashtbl.create 64 in
  (* Version [v] of [peer]: its attachment router and measurement. *)
  let info peer v =
    let fx0 = Lazy.force fx0 in
    let attach_router = fx0.map.leaves.(((2 * peer) + v) mod Array.length fx0.map.leaves) in
    match Hashtbl.find_opt measured (peer, v) with
    | Some m -> (attach_router, m)
    | None ->
        let m = Nearby.Client.measure (make_client fx0) ~attach_router in
        Hashtbl.add measured (peer, v) m;
        (attach_router, m)
  in
  QCheck.Test.make ~name:"one sync round = full restore" ~count:150
    (QCheck.make ~print:print_states gen_states)
    (fun states ->
      let fx0 = Lazy.force fx0 in
      let engine = Simkit.Engine.create () in
      let fx = { fx0 with engine; transport = Simkit.Transport.create engine fx0.oracle } in
      let cluster = make_cluster fx in
      let slots = Array.of_list (List.map (fun (a, b, c) -> [| a; b; c |]) states) in
      let slot peer i = slots.(peer).(i) in
      for i = 0 to 2 do
        Array.iteri
          (fun peer _ ->
            match slot peer i with
            | Absent -> ()
            | Version v ->
                let attach_router, (m : Nearby.Client.measurement) = info peer v in
                Nearby.Server.register_replica (Nearby.Cluster.server_of cluster i) ~peer
                  ~attach_router ~landmark:m.landmark ~path:m.path ~probes_spent:m.probes)
          slots
      done;
      (* The old full restore's outcome: the source (most peers, ties to the
         lowest id) keeps its versions, then each other replica in id order
         adds the peers still missing, then every replica copies it. *)
      let count i = Nearby.Server.peer_count (Nearby.Cluster.server_of cluster i) in
      let source =
        List.fold_left (fun best i -> if count i > count best then i else best) 0 [ 1; 2 ]
      in
      let expected =
        Array.mapi
          (fun peer _ ->
            List.fold_left
              (fun acc i -> match acc with Absent -> slot peer i | held -> held)
              Absent
              (source :: List.filter (( <> ) source) [ 0; 1; 2 ]))
          slots
      in
      Nearby.Cluster.sync_round cluster;
      Nearby.Cluster.check_invariants cluster;
      let digest i = Nearby.Server.digest (Nearby.Cluster.server_of cluster i) in
      let expected_ids =
        List.filter (fun peer -> expected.(peer) <> Absent) (List.init (Array.length slots) Fun.id)
      in
      digest 0 = digest 1 && digest 1 = digest 2
      && List.for_all
           (fun i ->
             let server = Nearby.Cluster.server_of cluster i in
             Nearby.Server.peer_ids server = expected_ids
             && List.for_all
                  (fun peer ->
                    match expected.(peer) with
                    | Absent -> true
                    | Version v ->
                        let attach_router, (m : Nearby.Client.measurement) = info peer v in
                        Nearby.Server.info server peer
                        = Some
                            {
                              Nearby.Server.attach_router;
                              landmark = m.landmark;
                              recorded_path = m.path;
                              probes_spent = m.probes;
                            })
                  expected_ids)
           [ 0; 1; 2 ])

let test_joins_under_loss_always_terminate () =
  (* The silent-stall regression (20% loss): every join must invoke exactly
     one of on_complete / on_failure — no hanging joins — and retries must
     carry the large majority through. *)
  let rng = Prelude.Prng.create 77 in
  let fx = fixture ~rng ~loss_prob:0.2 ~seed:26 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config ~rng:(Prelude.Prng.split rng) fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  let peers = 30 in
  let replies, failed = run_joins fx protocol ~peers ~k:4 ~horizon:120_000.0 in
  let completed = Hashtbl.length replies in
  Alcotest.(check int) "every join terminated" peers (completed + failed);
  (* A join is one call, or two when its first round was answered
     [Continue]; a retried first round can be answered [Continue] twice. *)
  let rpc_count = Simkit.Trace.counter (Simkit.Rpc.trace rpc) in
  let continues =
    List.fold_left ( + ) 0
      (List.init (Nearby.Cluster.replica_count cluster) (fun i ->
           Simkit.Trace.counter (Nearby.Server.trace (Nearby.Cluster.server_of cluster i))
             "join_continue"))
  in
  Alcotest.(check int) "rpc outcomes account for every call" (rpc_count "rpc_calls")
    (rpc_count "rpc_ok" + rpc_count "rpc_gave_up");
  Alcotest.(check bool)
    (Printf.sprintf "one call per join, one more per continue (%d calls, %d joins, %d continues)"
       (rpc_count "rpc_calls") peers continues)
    true
    (rpc_count "rpc_calls" >= peers && rpc_count "rpc_calls" <= peers + continues);
  Alcotest.(check bool)
    (Printf.sprintf "retries carry most joins through (%d/%d)" completed peers)
    true
    (completed >= peers * 8 / 10);
  Nearby.Cluster.check_invariants cluster

let test_single_cluster_guards () =
  (* No detector watches a lone replica: it is the target exactly while it
     is alive, and a join against it once crashed fails exactly once. *)
  let fx = fixture ~seed:27 () in
  let cluster, _, protocol = single_protocol fx (make_server fx ()) in
  Alcotest.(check int) "one replica" 1 (Nearby.Cluster.replica_count cluster);
  let target () = Nearby.Cluster.target cluster ~src:fx.map.core.(0) ~attempt:1 in
  Alcotest.(check (option int)) "alive replica is the target" (Some 0) (target ());
  Nearby.Cluster.crash cluster 0;
  Alcotest.(check (option int)) "crashed replica is no target" None (target ());
  let completed = ref 0 and failed = ref 0 in
  Nearby.Protocol.join protocol ~peer:0 ~attach_router:fx.map.leaves.(0) ~k:4
    ~on_complete:(fun _ _ -> incr completed)
    ~on_failure:(fun () -> incr failed);
  Simkit.Engine.run fx.engine ~until:60_000.0;
  Alcotest.(check (pair int int)) "on_failure exactly once" (0, 1) (!completed, !failed)

(* --- Replayed fan-out ---------------------------------------------------- *)

let measured_entries fx ~peers =
  let client = make_client fx in
  Array.init peers (fun peer ->
      let attach_router = fx.map.leaves.(peer mod Array.length fx.map.leaves) in
      (peer, attach_router, Nearby.Client.measure client ~attach_router))

(* A replayed fan-out applies each entry once.  Registering every peer on
   two replicas before either fan-out lands (a retry that failed over
   before the first reply) sends the third replica each report twice: the
   first delivery applies it, the replay and the two primaries' copies
   skip it. *)
let test_replayed_fan_out_applies_once () =
  let fx = fixture ~seed:33 () in
  let cluster = make_cluster fx in
  let n = 20 in
  let entries = measured_entries fx ~peers:n in
  let handle replica =
    Array.iter
      (fun (peer, attach_router, measurement) ->
        match
          Nearby.Cluster.handle_registration cluster ~replica ~peer ~attach_router ~measurement
            ~k:3
        with
        | Some _ -> ()
        | None -> Alcotest.fail "live replica did not answer")
      entries
  in
  handle 0;
  handle 1;
  Simkit.Engine.run fx.engine ~until:5_000.0;
  let c name = Simkit.Trace.counter (Nearby.Cluster.trace cluster) name in
  let applied i =
    Simkit.Trace.counter (Nearby.Server.trace (Nearby.Cluster.server_of cluster i)) "replica_register"
  in
  Alcotest.(check int) "two sends per registration" (4 * n) (c "cluster_replicate_send");
  Alcotest.(check (list int)) "each entry applied once, on the third replica" [ 0; 0; n ]
    (List.init 3 applied);
  Alcotest.(check int) "apply counter" n (c "cluster_replicate_apply");
  Alcotest.(check int) "the replay and the primaries' copies skip" (3 * n)
    (c "cluster_replicate_skip");
  Alcotest.(check bool) "replicas consistent" true (Nearby.Cluster.consistent cluster);
  Nearby.Cluster.check_invariants cluster;
  (* The apply rule's step still rejects an unknown landmark. *)
  let _, attach_router, (m : Nearby.Client.measurement) = entries.(0) in
  match
    Nearby.Server.register_replica (Nearby.Cluster.server_of cluster 2) ~peer:(n + 50)
      ~attach_router ~landmark:(-1) ~path:m.path ~probes_spent:m.probes
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown landmark accepted"

(* A fresh registration's reply carries the measurement's own path, not a
   view rebuilt from the stored routers; only a retry's reply is rebuilt,
   and it shows the same registration. *)
let test_registration_reply_shares_path () =
  let fx = fixture ~seed:34 () in
  let cluster = make_cluster fx in
  let peer, attach_router, measurement = (measured_entries fx ~peers:1).(0) in
  let single () =
    match Nearby.Cluster.handle_registration cluster ~replica:0 ~peer ~attach_router ~measurement ~k:3 with
    | Some (Nearby.Cluster.Registered { info; _ }) -> info
    | Some (Continue _) | None -> Alcotest.fail "live replica did not answer"
  in
  let first = single () in
  Alcotest.(check bool) "fresh reply shares the path" true
    (first.recorded_path == measurement.path);
  let retry = single () in
  Alcotest.(check bool) "retry reply is rebuilt" false (retry.recorded_path == first.recorded_path);
  Alcotest.(check bool) "retry shows the same registration" true (retry = first)

(* --- Replica state pins -----------------------------------------------------

   What the replicas end up holding, pinned to values taken from the
   write path that resends every report verbatim: however replication
   encodes a registration, each replica must store the same routers for
   every peer. *)

let state_of server =
  (Printf.sprintf "%016Lx" (Nearby.Server.digest server), Nearby.Server.peer_count server)

let replica_states cluster =
  List.init (Nearby.Cluster.replica_count cluster) (fun i ->
      state_of (Nearby.Cluster.server_of cluster i))

let states = Alcotest.(list (pair string int))

(* A hand-built fan-out sequence: primaries rotate, one registration is
   retried on a second replica, and replica 2 is down for two joins, so
   the joins after its recovery replicate routes whose nearest stored
   neighbours it never received.  Before the sync round only replica 2
   lags, by exactly the two joins it missed; after it, all agree. *)
let test_hand_built_fan_out_pinned () =
  let fx = fixture ~seed:35 () in
  let cluster = make_cluster fx in
  let entries = measured_entries fx ~peers:24 in
  let register replica (peer, attach_router, measurement) =
    match
      Nearby.Cluster.handle_registration cluster ~replica ~peer ~attach_router ~measurement ~k:3
    with
    | Some _ -> ()
    | None -> Alcotest.fail "live replica did not answer"
  in
  let settle () = Simkit.Engine.run fx.engine ~until:(Simkit.Engine.now fx.engine +. 200.0) in
  Array.iteri
    (fun i entry ->
      if i = 10 then Nearby.Cluster.crash cluster 2;
      if i = 12 then Nearby.Cluster.recover cluster 2;
      register (i mod 2) entry;
      if i = 5 then register 2 entry;
      settle ())
    entries;
  Alcotest.check states "before sync"
    [ ("6af9f441bf8a3c4b", 24); ("6af9f441bf8a3c4b", 24); ("abda4d2445c751b9", 22) ]
    (replica_states cluster);
  Nearby.Cluster.sync_round cluster;
  Alcotest.(check bool) "consistent after sync" true (Nearby.Cluster.consistent cluster);
  Alcotest.check states "after sync"
    [ ("6af9f441bf8a3c4b", 24); ("6af9f441bf8a3c4b", 24); ("6af9f441bf8a3c4b", 24) ]
    (replica_states cluster);
  Nearby.Cluster.check_invariants cluster

(* A replica that missed the donor refuses the prefix, and the primary
   resends the full report: peer 1 attaches where peer 0 did, so peer 0
   is its donor, and replica 2 was down for peer 0's fan-out.  The span of
   the refused prefix ends "nacked"; the resend gets a span of its own. *)
let test_refused_prefix_is_resent_whole () =
  let fx = fixture ~seed:36 () in
  let spans = Simkit.Span.buffer () in
  Simkit.Span.set_clock spans (fun () -> Simkit.Engine.now fx.engine);
  let cluster =
    Nearby.Cluster.create ~detector_config ~spans ~transport:fx.transport
      ~client_router:fx.map.core.(0) ~make_server:(make_server fx) ~routers:fx.replica_routers ()
  in
  let client = make_client fx in
  let attach_router = fx.map.leaves.(0) in
  let register peer =
    let measurement = Nearby.Client.measure client ~attach_router in
    ignore
      (Nearby.Cluster.handle_registration cluster ~replica:0 ~peer ~attach_router ~measurement ~k:3);
    let report = Nearby.Wire.Path_report { peer; path = measurement.path } in
    let msg =
      match Nearby.Server.replication_prefix (Nearby.Cluster.server_of cluster 0) ~peer with
      | Some prefix -> prefix
      | None -> report
    in
    Simkit.Engine.run fx.engine ~until:(Simkit.Engine.now fx.engine +. 200.0);
    (Nearby.Wire.byte_size report, Nearby.Wire.byte_size msg)
  in
  Nearby.Cluster.crash cluster 2;
  let report0, _ = register 0 in
  Nearby.Cluster.recover cluster 2;
  let report1, prefix1 = register 1 in
  let c name = Simkit.Trace.counter (Nearby.Cluster.trace cluster) name in
  Alcotest.(check int) "peer 1 went as a prefix to both" 2 (c "cluster_replicate_prefix");
  Alcotest.(check int) "replica 2 refused it" 1 (c "cluster_replicate_nack");
  Alcotest.(check int) "four sends and the resend" 5 (c "cluster_replicate_send");
  Alcotest.(check int) "applied: peer 0 and 1 on replica 1, the resent peer 1" 3
    (c "cluster_replicate_apply");
  Alcotest.(check int) "skipped: peer 0 on the crashed replica" 1 (c "cluster_replicate_skip");
  let path i = Nearby.Server.path_of (Nearby.Cluster.server_of cluster i) 1 in
  Alcotest.(check (option (array int))) "replica 1 completed the route" (path 0) (path 1);
  Alcotest.(check (option (array int))) "replica 2 stored the resent report" (path 0) (path 2);
  Alcotest.(check bool) "replica 2 still lacks peer 0" false
    (Nearby.Server.mem (Nearby.Cluster.server_of cluster 2) 0);
  let outcomes =
    List.filter_map
      (fun (e : Simkit.Span.event) ->
        if e.name = "replicate" then
          match List.assoc_opt "outcome" e.args with
          | Some (Simkit.Span.Str o) -> Some o
          | _ -> None
        else None)
      (Simkit.Span.events spans)
  in
  Alcotest.(check (list string)) "replicate outcomes"
    [ "applied"; "applied"; "applied"; "nacked"; "skipped" ]
    (List.sort compare outcomes);
  (* Every replication message is charged: peer 0's two reports, peer 1's
     two prefixes, the NACK and the resent report. *)
  let nack = Nearby.Wire.byte_size (Nearby.Wire.Replica_nack { peer = 1 }) in
  Alcotest.(check bool) "prefix, not the report" true (prefix1 < report1);
  Alcotest.(check int) "replica bytes"
    ((2 * report0) + (2 * prefix1) + nack + report1)
    (c "cluster_replica_bytes");
  Alcotest.(check (float 1e-12)) "amplification"
    (1.0 +. (float_of_int (c "cluster_replica_bytes") /. float_of_int (report0 + report1)))
    (Nearby.Cluster.replication_amplification cluster)

(* Every replica's digest and peer count after a quick [Cluster_run] and
   its settle step, with no fault, a loss burst and a crashed primary. *)
let pinned_run_config =
  {
    Eval.Cluster_run.routers = 800;
    peers = 120;
    k = 5;
    replicas = 3;
    arrival_window_ms = 8_000.0;
    sync_period_ms = 2_000.0;
    drain_ms = 0.0;
    seed = 1;
  }

let settled_states fault =
  let run = Eval.Cluster_run.create ~fault pinned_run_config in
  Eval.Cluster_run.arrivals run;
  Eval.Cluster_run.settle run;
  replica_states run.cluster

(* Every join completes in all three scenarios and a join's route does
   not depend on the network, so the three settle to one state. *)
let test_cluster_run_states_pinned () =
  let w = pinned_run_config.arrival_window_ms in
  let from_ms, until_ms = Eval.Cluster_run.fault_window pinned_run_config in
  let settled = List.init 3 (fun _ -> ("ac4d097fde103361", 120)) in
  List.iter
    (fun (label, fault) -> Alcotest.check states label settled (settled_states (fun _ -> fault)))
    [
      ("no fault", Simkit.Fault.none);
      ("loss burst", Simkit.Fault.loss_burst ~from_ms ~until_ms ~loss:0.3 ());
      ( "crash primary",
        Simkit.Fault.crash_primary ~crash_at:(0.25 *. w) ~recover_at:(0.7 *. w) () );
    ]

(* The partition scenario end to end: the primary's subtree is cut off for
   part of the arrival window, every join still resolves, the cut really
   dropped traffic, and after the heal and the settle round every live
   replica holds the same peer set. *)
let test_partition_scenario_heals () =
  let config =
    { Eval.Resilience_exp.quick_config with routers = 400; peers = 60; scenario = "partition" }
  in
  let r = Eval.Resilience_exp.run config in
  Alcotest.(check int) "every join settles" r.joins (r.completed + r.failed);
  Alcotest.(check bool) "the cut dropped messages" true (r.dropped_partition > 0);
  Alcotest.(check bool) "consistent after the heal" true r.consistent;
  Alcotest.(check int) "live peer counts agree" 1
    (List.length (List.sort_uniq compare r.live_peer_counts))

(* --- The prefix round ------------------------------------------------------ *)

(* Joins through the prefix round register, on every replica, the route a
   full trace records, whatever the routing (every oracle builds one sink
   tree per destination) and whatever the order and overlap of the joins:
   each replica's digest equals that of a server joined with full traces. *)
let qcheck_prefix_round_matches_full_traces =
  QCheck.Test.make ~name:"prefix-round joins = full-trace joins" ~count:24
    QCheck.(
      triple (int_bound 2) (int_range 1 1000)
        (list_of_size (Gen.return 30) (pair (int_bound 10_000) (float_bound_inclusive 300.0))))
    (fun (mode, seed, joins) ->
      let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 250) ~seed in
      let oracle =
        match mode with
        | 0 -> Traceroute.Route_oracle.create map.graph
        | 1 ->
            Traceroute.Route_oracle.create_weighted map.graph ~weight:(fun u v ->
                1.0 +. float_of_int (((u * v) + u + v) mod 5))
        | _ -> Traceroute.Route_oracle.create_inflated map.graph ~inflation:2.0 ~seed
      in
      let rng = Prelude.Prng.create seed in
      let landmarks =
        Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:3 ~rng
      in
      let replica_routers =
        Nearby.Landmark.place map.graph Nearby.Landmark.High_degree ~count:3 ~rng
      in
      let engine = Simkit.Engine.create () in
      let transport = Simkit.Transport.create engine oracle in
      let make_server () = Nearby.Server.create oracle ~landmarks in
      let cluster =
        Nearby.Cluster.create ~detector_config ~transport ~client_router:map.core.(0)
          ~make_server ~routers:replica_routers ()
      in
      let rpc = Simkit.Rpc.create ~config:rpc_config transport in
      let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
      let reference = make_server () in
      let client = Nearby.Client.create oracle ~landmarks in
      let completed = ref 0 in
      List.iteri
        (fun peer (leaf, at) ->
          let attach_router = map.leaves.(leaf mod Array.length map.leaves) in
          ignore (Nearby.Server.join reference ~client ~peer ~attach_router);
          Simkit.Engine.schedule_at engine ~time:at (fun () ->
              Nearby.Protocol.join protocol ~peer ~attach_router ~k:3
                ~on_complete:(fun _ _ -> incr completed)))
        joins;
      Simkit.Engine.run engine ~until:60_000.0;
      let expected = state_of reference in
      let paths_equal i =
        List.for_all
          (fun peer ->
            Nearby.Server.path_of (Nearby.Cluster.server_of cluster i) peer
            = Nearby.Server.path_of reference peer)
          (Nearby.Server.peer_ids reference)
      in
      !completed = List.length joins
      && List.for_all (fun st -> st = expected) (replica_states cluster)
      && List.for_all paths_equal [ 0; 1; 2 ])

(* A backend without a router index ([member_through] = -1) holds no
   prefix router, so every join whose route is longer than the prefix
   takes the continue round, and the registrations still equal the tree
   backend's. *)
let test_naive_backend_always_continues () =
  let fx = fixture ~seed:37 () in
  let run backend =
    let cluster =
      Nearby.Cluster.create ~detector_config ~transport:fx.transport
        ~client_router:fx.map.core.(0)
        ~make_server:(fun () -> Nearby.Server.create ~backend fx.oracle ~landmarks:fx.landmarks)
        ~routers:fx.replica_routers ()
    in
    let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
    let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
    let base = Simkit.Engine.now fx.engine in
    let peers = 20 in
    let done_ = ref 0 in
    for peer = 0 to peers - 1 do
      Simkit.Engine.schedule_at fx.engine ~time:(base +. (float_of_int peer *. 50.0)) (fun () ->
          Nearby.Protocol.join protocol ~peer
            ~attach_router:fx.map.leaves.(peer mod Array.length fx.map.leaves)
            ~k:4
            ~on_complete:(fun _ _ -> incr done_))
    done;
    Simkit.Engine.run fx.engine ~until:(base +. 60_000.0);
    Alcotest.(check int) "every join completed" peers !done_;
    (cluster, rpc)
  in
  let tree, _ = run (module Nearby.Path_tree : Nearby.Registry_intf.S) in
  let naive, rpc = run (module Nearby.Naive_registry) in
  let client = make_client fx in
  let long =
    List.length
      (List.filter
         (fun peer ->
           (Nearby.Client.measure client
              ~attach_router:fx.map.leaves.(peer mod Array.length fx.map.leaves))
             .full_hops > Nearby.Client.prefix_hops)
         (List.init 20 Fun.id))
  in
  Alcotest.(check int) "one call per join, one more per long route" (20 + long)
    (Simkit.Trace.counter (Simkit.Rpc.trace rpc) "rpc_calls");
  Alcotest.(check states) "same registrations as the tree backend" (replica_states tree)
    (replica_states naive)

(* The continue round and a refused prefix under a loss burst and a
   crashed primary: every join settles exactly once, every RPC call ends
   in one reply or one give-up, and after the heal every acknowledged join
   is on every live replica.  The run really exercises both paths. *)
let test_prefix_round_under_faults () =
  let w = pinned_run_config.arrival_window_ms in
  let from_ms, until_ms = Eval.Cluster_run.fault_window pinned_run_config in
  List.iter
    (fun (label, fault) ->
      let run = Eval.Cluster_run.create ~fault:(fun _ -> fault) pinned_run_config in
      let acked = Array.make pinned_run_config.peers 0 in
      Eval.Cluster_run.arrivals run ~on_complete:(fun ~peer ~trace_id:_ ~latency_ms:_ _ ->
          acked.(peer) <- acked.(peer) + 1);
      Eval.Cluster_run.settle run;
      let peers = pinned_run_config.peers in
      Alcotest.(check int) (label ^ ": every join settles") peers (run.completed + run.failed);
      Alcotest.(check bool) (label ^ ": acknowledged at most once") true
        (Array.for_all (fun c -> c <= 1) acked);
      let rc = Simkit.Trace.counter (Simkit.Rpc.trace run.rpc) in
      Alcotest.(check int) (label ^ ": every call settles once") (rc "rpc_calls")
        (rc "rpc_ok" + rc "rpc_gave_up");
      let cluster = run.cluster in
      let sum name =
        List.fold_left ( + ) 0
          (List.init (Nearby.Cluster.replica_count cluster) (fun i ->
               Simkit.Trace.counter (Nearby.Server.trace (Nearby.Cluster.server_of cluster i)) name))
      in
      Alcotest.(check bool) (label ^ ": some join continued") true (sum "join_continue" > 0);
      Alcotest.(check bool)
        (label ^ ": a replica refused a prefix")
        true
        (Simkit.Trace.counter (Nearby.Cluster.trace cluster) "cluster_replicate_nack" > 0);
      for i = 0 to Nearby.Cluster.replica_count cluster - 1 do
        if Nearby.Cluster.is_alive cluster i then
          Array.iteri
            (fun peer c ->
              if c = 1 then
                Alcotest.(check bool)
                  (Printf.sprintf "%s: replica %d holds acknowledged peer %d" label i peer)
                  true
                  (Nearby.Server.mem (Nearby.Cluster.server_of cluster i) peer))
            acked
      done)
    [
      ("loss burst", Simkit.Fault.loss_burst ~from_ms ~until_ms ~loss:0.3 ());
      ( "crash primary",
        Simkit.Fault.crash_primary ~crash_at:(0.25 *. w) ~recover_at:(0.7 *. w) () );
    ]

(* A continued join whose replica crashed between its two rounds, before
   anyone suspects it: the second call's first attempt goes to that
   replica and times out, and the failover's next attempt goes to the
   closest other replica, not back to the crashed one. *)
let test_continue_round_fails_over_past_a_crash () =
  let fx = fixture ~seed:24 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let client = make_client fx in
  let protocol = Nearby.Protocol.create_resilient ~client ~rpc cluster in
  let attach_router =
    List.find
      (fun r -> (Nearby.Client.measure client ~attach_router:r).full_hops > Nearby.Client.prefix_hops)
      (Array.to_list fx.map.leaves)
  in
  let closest = Option.get (Nearby.Cluster.target cluster ~src:attach_router ~attempt:1) in
  let after = Option.get (Nearby.Cluster.target ~first:closest cluster ~src:attach_router ~attempt:2) in
  Alcotest.(check int) "first heads the order" closest
    (Option.get (Nearby.Cluster.target ~first:closest cluster ~src:attach_router ~attempt:1));
  Alcotest.(check bool) "attempt 2 goes elsewhere" true (after <> closest);
  (* The empty tree continues the join; the replica crashes once it has
     sent that answer. *)
  let m = Nearby.Client.measure_join client ~attach_router in
  let answered =
    Nearby.Client.first_round_ms client m
    +. Simkit.Transport.one_way_delay fx.transport ~src:attach_router
         ~dst:(Nearby.Cluster.replica_router cluster closest)
  in
  Simkit.Engine.schedule_at fx.engine ~time:(answered +. 0.5) (fun () ->
      Nearby.Cluster.crash cluster closest);
  let done_ = ref false in
  Nearby.Protocol.join protocol ~peer:0 ~attach_router ~k:3 ~on_complete:(fun _ _ -> done_ := true);
  Simkit.Engine.run fx.engine ~until:5_000.0;
  Alcotest.(check bool) "completed" true !done_;
  let server i = Nearby.Cluster.server_of cluster i in
  Alcotest.(check int) "one continue" 1
    (Simkit.Trace.counter (Nearby.Server.trace (server closest)) "join_continue");
  Alcotest.(check bool) "registered where attempt 2 went" true (Nearby.Server.mem (server after) 0);
  Alcotest.(check bool) "not on the crashed replica" false (Nearby.Server.mem (server closest) 0);
  Alcotest.(check int) "one timeout" 1 (Simkit.Trace.counter (Simkit.Rpc.trace rpc) "rpc_timeouts")

(* A replicated join's cost, on a 300-router map: 200 joins after 200
   that warm the first-write cells and the grown arrays, through Protocol
   over Rpc, a jittered Transport and a 3-replica Cluster with its
   failure detector.  Both counts are exact and deterministic for a
   build, so each budget is the measured value plus 2%.

   - Minor words per join of the second 200: a layer that starts boxing
     per message (a mutable [int64] or [float] field, a closure per call)
     fails it.
   - Words reachable from the cluster after all 400, less the router map
     and its route trees, per registration held over the replicas: a
     replica that copies a route another member already stores fails
     it. *)
let replicated_joins =
  lazy
    (let fx = fixture ~rng:(Prelude.Prng.create 5) ~seed:41 () in
     let rpc = Simkit.Rpc.create ~config:rpc_config ~rng:(Prelude.Prng.create 6) fx.transport in
     let cluster = make_cluster fx in
     let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
     let joins = 200 and completed = ref 0 in
     let leaves = fx.map.leaves in
     let stream ~first =
       for i = 0 to joins - 1 do
         let peer = first + i in
         Simkit.Engine.schedule fx.engine ~delay:(float_of_int i *. 2.0) (fun () ->
             Nearby.Protocol.join protocol ~peer
               ~attach_router:leaves.(peer mod Array.length leaves)
               ~k:5
               ~on_complete:(fun _ _ -> incr completed)
               ~on_failure:(fun () -> Alcotest.fail "a join failed on a loss-free network"))
       done;
       Simkit.Engine.run fx.engine
         ~until:(Simkit.Engine.now fx.engine +. (float_of_int joins *. 2.0) +. 1_000.0)
     in
     stream ~first:0;
     let before = Gc.minor_words () in
     stream ~first:joins;
     let words = (Gc.minor_words () -. before) /. float_of_int joins in
     Alcotest.(check int) "every join completed" (2 * joins) !completed;
     let members =
       List.init (Nearby.Cluster.replica_count cluster) (fun i ->
           Nearby.Server.peer_count (Nearby.Cluster.server_of cluster i))
     in
     let state =
       Obj.reachable_words (Obj.repr cluster) - Obj.reachable_words (Obj.repr fx.oracle)
     in
     (words, float_of_int state /. float_of_int (List.fold_left ( + ) 0 members)))

let within_budget what value budget =
  Alcotest.(check bool) (Printf.sprintf "%.1f %s, budget %.1f" value what budget) true (value <= budget)

let test_join_words_budget () =
  within_budget "minor words per join" (fst (Lazy.force replicated_joins)) (392.3 *. 1.02)

let test_state_words_budget () =
  within_budget "words per member" (snd (Lazy.force replicated_joins)) (50.05 *. 1.02)

(* A replica's wire counter charges the frames a join sent it and the
   replies it sent back: a first round's [Path_prefix] frame carries [k],
   so its answer adds the reply alone.  Checked against the transport's
   labeled request and reply bytes for a first round, a retry whose first
   request was lost, and a re-answer after a lost reply (whose dropped
   reply the server did send), in a first round and in a continue round,
   whose retry carries the report again.  The counter covers uploads and
   query exchanges, not the [Continue] answer that asks for the rest. *)
let test_join_server_bytes_match_transport () =
  let metrics = Simkit.Metrics.create () in
  let fx = fixture ~metrics ~replicas:1 ~seed:22 () in
  let server = make_server fx () in
  let cluster =
    Nearby.Cluster.single ~transport:fx.transport ~router:fx.replica_routers.(0) server
  in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  let client = make_client fx in
  let attach_router = fx.map.leaves.(0) in
  let server_bytes () = Simkit.Trace.counter (Nearby.Server.trace server) "wire_bytes" in
  let labeled () =
    List.fold_left
      (fun acc (name, labels, _) ->
        if name = "wire_bytes_total" && List.mem (List.assoc "dir" labels) [ "request"; "reply" ]
        then acc + Simkit.Metrics.counter metrics name ~labels
        else acc)
      0 (Simkit.Metrics.series metrics)
  in
  let counter trace name = Simkit.Trace.counter trace name in
  let rpcs name = counter (Simkit.Rpc.trace rpc) name in
  let one_way =
    Simkit.Transport.one_way_delay fx.transport ~src:attach_router ~dst:fx.replica_routers.(0)
  in
  let back =
    Simkit.Transport.one_way_delay fx.transport ~src:fx.replica_routers.(0) ~dst:attach_router
  in
  (* Join [peer] with the client cut off from [from] to [until] ms after
     its first round is sent -- or, [~continued], its continue round,
     sent once the [Continue] answer is back and the whole trace is in;
     the deltas of the server's bytes, the labeled bytes and the dropped
     bytes. *)
  let join ?cut ?(continued = false) peer =
    let start = Simkit.Engine.now fx.engine in
    let m = Nearby.Client.measure_join client ~attach_router in
    let first = start +. Nearby.Client.first_round_ms client m in
    let sent =
      if continued then Float.max (start +. Nearby.Client.duration_ms m) (first +. one_way +. back)
      else first
    in
    Option.iter
      (fun (from, until) ->
        Simkit.Engine.schedule_at fx.engine ~time:(sent +. from) (fun () ->
            Simkit.Transport.set_partition_nodes fx.transport [ attach_router ]);
        Simkit.Engine.schedule_at fx.engine ~time:(sent +. until) (fun () ->
            Simkit.Transport.clear_partition fx.transport))
      cut;
    let dropped () = Simkit.Transport.bytes_dropped fx.transport in
    let s0 = server_bytes () and l0 = labeled () and d0 = dropped () in
    let completed = ref false in
    Nearby.Protocol.join protocol ~peer ~attach_router ~k:4
      ~on_complete:(fun _ _ -> completed := true);
    Simkit.Engine.run fx.engine ~until:(start +. 5_000.0);
    Alcotest.(check bool) (Printf.sprintf "peer %d joined" peer) true !completed;
    (server_bytes () - s0, labeled () - l0, dropped () - d0)
  in
  (* The first join finds the trees empty and continues; its continue
     round's first reply is lost, and the retry is answered again. *)
  let duplicates () = counter (Nearby.Cluster.trace cluster) "cluster_duplicate_register" in
  let s, l, d = join ~continued:true ~cut:(0.001, one_way +. 0.001) 0 in
  let continued = counter (Nearby.Server.trace server) "join_continue" in
  Alcotest.(check int) "lost continue reply: the first round continued" 1 continued;
  Alcotest.(check int) "lost continue reply: re-answered" 1 (duplicates ());
  Alcotest.(check bool) "lost continue reply: dropped" true (d > 0);
  Alcotest.(check int) "lost continue reply: server bytes = labeled + the dropped reply" (l + d) s;
  let attempts = rpcs "rpc_attempts" in
  let s, l, d = join 1 in
  Alcotest.(check int) "first round: one attempt" (attempts + 1) (rpcs "rpc_attempts");
  Alcotest.(check int) "first round: nothing dropped" 0 d;
  Alcotest.(check int) "first round: server bytes = labeled request + reply" l s;
  (* The first request is lost: the partition is up when it is sent. *)
  let retries = rpcs "rpc_retries" in
  let s, l, d = join ~cut:(-0.001, 0.001) 2 in
  Alcotest.(check int) "lost request: one retry" (retries + 1) (rpcs "rpc_retries");
  Alcotest.(check bool) "lost request: dropped" true (d > 0);
  Alcotest.(check int) "lost request: server bytes = labeled request + reply" l s;
  (* The first reply is lost: it is sent into the partition once the
     request has arrived, and the retry is answered again. *)
  let dup = duplicates () in
  let s, l, d = join ~cut:(0.001, one_way +. 0.001) 3 in
  Alcotest.(check int) "lost reply: re-answered" (dup + 1) (duplicates ());
  Alcotest.(check bool) "lost reply: dropped" true (d > 0);
  Alcotest.(check int) "lost reply: server bytes = labeled + the dropped reply" (l + d) s;
  Alcotest.(check int) "every join answered in its first round" continued
    (counter (Nearby.Server.trace server) "join_continue")

let suite =
  ( "cluster",
    [
      Alcotest.test_case "single = plain server" `Quick test_single_matches_plain_server;
      Alcotest.test_case "words per replicated join" `Quick test_join_words_budget;
      Alcotest.test_case "state per member" `Quick test_state_words_budget;
      Alcotest.test_case "resilient 1-replica = server" `Quick
        test_one_replica_create_matches_plain_server;
      Alcotest.test_case "fan-out replicates to all" `Quick test_fan_out_replicates_to_all;
      Alcotest.test_case "crash primary fails over" `Quick test_crash_primary_fails_over;
      Alcotest.test_case "anti-entropy heals stale replica" `Quick
        test_anti_entropy_heals_stale_replica;
      Alcotest.test_case "consistent compares recorded paths" `Quick
        test_consistent_compares_paths;
      Alcotest.test_case "repair bytes scale with the difference" `Quick
        test_repair_bytes_scale_with_the_difference;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
        qcheck_delta_repair_matches_full_restore;
      Alcotest.test_case "joins under 20% loss terminate" `Quick
        test_joins_under_loss_always_terminate;
      Alcotest.test_case "single-cluster guards" `Quick test_single_cluster_guards;
      Alcotest.test_case "registration reply shares the measured path" `Quick
        test_registration_reply_shares_path;
      Alcotest.test_case "replayed fan-out applies once" `Quick
        test_replayed_fan_out_applies_once;
      Alcotest.test_case "partition scenario heals" `Quick test_partition_scenario_heals;
      Alcotest.test_case "hand-built fan-out states pinned" `Quick test_hand_built_fan_out_pinned;
      Alcotest.test_case "refused prefix is resent whole" `Quick
        test_refused_prefix_is_resent_whole;
      Alcotest.test_case "cluster_run replica states pinned" `Quick test_cluster_run_states_pinned;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
        qcheck_prefix_round_matches_full_traces;
      Alcotest.test_case "naive backend always continues" `Quick
        test_naive_backend_always_continues;
      Alcotest.test_case "prefix round under faults" `Quick test_prefix_round_under_faults;
      Alcotest.test_case "continue round fails over past a crash" `Quick
        test_continue_round_fails_over_past_a_crash;
      Alcotest.test_case "join server bytes match the transport" `Quick
        test_join_server_bytes_match_transport;
    ] )
