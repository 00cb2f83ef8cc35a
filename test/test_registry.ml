(* The unified registry seam: every backend must answer identically, keep
   its invariants under churn, give the server the same content digest,
   and round-trip through the server's snapshot/restore. *)

open Nearby

let specs = Eval.Backends.all
let backend_of = Eval.Backends.backend
let spec_name = Eval.Backends.to_string

(* A registration scenario on an arbitrary graph: a landmark, and for every
   candidate attachment router its recorded path toward the landmark. *)
type scenario = {
  graph : Topology.Graph.t;
  landmark : Topology.Graph.node;
  route_of : Topology.Graph.node -> Topology.Graph.node array;
}

let scenario_of_graph graph ~seed =
  let oracle = Traceroute.Route_oracle.create graph in
  let rng = Prelude.Prng.create (seed + 101) in
  let landmark = (Landmark.place graph Landmark.Medium_degree ~count:1 ~rng).(0) in
  {
    graph;
    landmark;
    route_of =
      (fun src -> Array.of_list (Traceroute.Route_oracle.route oracle ~src ~dst:landmark));
  }

let waxman_scenario ~seed =
  let graph, _ = Topology.Gen_waxman.generate ~nodes:120 ~alpha:0.3 ~beta:0.25 ~seed in
  scenario_of_graph graph ~seed

let transit_stub_scenario ~seed =
  scenario_of_graph
    (Topology.Gen_transit_stub.generate Topology.Gen_transit_stub.default_params ~seed)
    ~seed

let fresh_registries sc = List.map (fun spec -> Registry_intf.create (backend_of spec) ~landmark:sc.landmark) specs

let attach_router sc rng = Prelude.Prng.int rng (Topology.Graph.node_count sc.graph)

(* Same call against every backend; all must agree with the first (the path
   tree).  Answers are fully ordered by (dtree, peer id), so agreement is
   exact list equality — tie order included. *)
let check_agreement ~what replies =
  match replies with
  | [] -> ()
  | (_, reference) :: rest ->
      List.iter
        (fun (name, reply) ->
          Alcotest.(check (list (pair int int))) (Printf.sprintf "%s: %s" name what) reference reply)
        rest

(* --- Cross-backend equivalence on random topologies -------------------- *)

let qcheck_equivalence =
  QCheck.Test.make ~name:"all backends return identical neighbor sets" ~count:15
    QCheck.(make Gen.(pair small_nat bool))
    (fun (seed, waxman) ->
      let sc = if waxman then waxman_scenario ~seed else transit_stub_scenario ~seed in
      let rng = Prelude.Prng.create (seed + 7) in
      let regs = fresh_registries sc in
      let peers = 35 in
      (* Half the peers attach at one of four routers, so attach routers
         repeat and members share stored routes. *)
      let pool = Array.init 4 (fun _ -> attach_router sc rng) in
      let attach () =
        if Prelude.Prng.bool rng then pool.(Prelude.Prng.int rng 4) else attach_router sc rng
      in
      let insert peer =
        let routers = sc.route_of (attach ()) in
        List.iter (fun reg -> Registry_intf.insert reg ~peer ~routers) regs
      in
      (* Member queries: everyone's k nearest, and the stored paths. *)
      let agree ~what live =
        List.iter
          (fun peer ->
            check_agreement
              ~what:(Printf.sprintf "%s: query_member peer %d" what peer)
              (List.map2
                 (fun spec reg -> (spec_name spec, Registry_intf.query_member reg ~peer ~k:5))
                 specs regs);
            match List.map (fun reg -> Registry_intf.path_of reg peer) regs with
            | [] -> ()
            | reference :: rest ->
                List.iter
                  (Alcotest.(check (option (array int)))
                     (Printf.sprintf "%s: path_of peer %d" what peer)
                     reference)
                  rest)
          live
      in
      for peer = 0 to peers - 1 do
        insert peer
      done;
      agree ~what:"registered" (List.init peers Fun.id);
      (* Newcomer queries from paths never registered, several k values. *)
      for trial = 0 to 9 do
        let routers = sc.route_of (attach_router sc rng) in
        let k = 1 + (trial mod 7) in
        check_agreement
          ~what:(Printf.sprintf "newcomer query %d" trial)
          (List.map2
             (fun spec reg -> (spec_name spec, Registry_intf.query reg ~routers ~k ()))
             specs regs)
      done;
      (* dtree must also agree pairwise. *)
      for p1 = 0 to 9 do
        for p2 = 0 to 9 do
          match List.map (fun reg -> Registry_intf.dtree reg p1 p2) regs with
          | [] -> ()
          | reference :: rest ->
              List.iter
                (fun d ->
                  Alcotest.(check (option int))
                    (Printf.sprintf "dtree %d %d" p1 p2)
                    reference d)
                rest
        done
      done;
      List.iter Registry_intf.check_invariants regs;
      (* Remove every third peer -- peer 0 first, often the head whose
         route later members on its router share -- then register more on
         the same routers. *)
      for peer = 0 to peers - 1 do
        if peer mod 3 = 0 then List.iter (fun reg -> Registry_intf.remove reg peer) regs
      done;
      List.iter Registry_intf.check_invariants regs;
      let live = List.filter (fun peer -> peer mod 3 <> 0) (List.init peers Fun.id) in
      agree ~what:"after removals" live;
      for peer = peers to peers + 9 do
        insert peer
      done;
      List.iter Registry_intf.check_invariants regs;
      agree ~what:"re-registered" (live @ List.init 10 (fun i -> peers + i));
      true)

(* --- Batch/singleton agreement ----------------------------------------- *)

let qcheck_batch_agreement =
  QCheck.Test.make ~name:"insert_many matches looped singletons" ~count:15
    QCheck.(make Gen.(pair small_nat bool))
    (fun (seed, waxman) ->
      let sc = if waxman then waxman_scenario ~seed else transit_stub_scenario ~seed in
      let rng = Prelude.Prng.create (seed + 23) in
      List.iter
        (fun spec ->
          let name = spec_name spec in
          let backend = backend_of spec in
          let batched = Registry_intf.create backend ~landmark:sc.landmark in
          let looped = Registry_intf.create backend ~landmark:sc.landmark in
          let peers = 30 in
          let entries =
            Array.init peers (fun peer -> (peer, sc.route_of (attach_router sc rng)))
          in
          Registry_intf.insert_many batched entries;
          Array.iter (fun (peer, routers) -> Registry_intf.insert looped ~peer ~routers) entries;
          Registry_intf.check_invariants batched;
          Alcotest.(check int)
            (name ^ ": member count")
            (Registry_intf.member_count looped)
            (Registry_intf.member_count batched);
          (* The batch leaves the state the loop leaves: every newcomer and
             member query answers the same on both. *)
          let k = 4 in
          for qi = 0 to 11 do
            let routers = sc.route_of (attach_router sc rng) in
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s: query %d" name qi)
              (Registry_intf.query looped ~routers ~k ())
              (Registry_intf.query batched ~routers ~k ())
          done;
          for peer = 0 to peers - 1 do
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s: query_member %d" name peer)
              (Registry_intf.query_member looped ~peer ~k)
              (Registry_intf.query_member batched ~peer ~k)
          done)
        specs;
      true)

(* Batch validation is atomic on every backend: a batch with any entry
   [insert] would reject -- a duplicate peer, against the population or
   inside the batch, an empty path, a path not ending at the landmark, a
   negative router -- is rejected before its valid entries are applied. *)
let test_batch_rejects_bad_entries_atomically () =
  let sc = transit_stub_scenario ~seed:6 in
  let rng = Prelude.Prng.create 17 in
  let route () = sc.route_of (attach_router sc rng) in
  List.iter
    (fun spec ->
      let name = spec_name spec in
      let reg = Registry_intf.create (backend_of spec) ~landmark:sc.landmark in
      Registry_intf.insert reg ~peer:0 ~routers:(route ());
      let elsewhere = if sc.landmark = 0 then 1 else 0 in
      let bad_batches =
        [
          ("duplicate of a member", [| (1, route ()); (0, route ()) |]);
          ("duplicate inside the batch", [| (2, route ()); (2, route ()) |]);
          ("empty path", [| (3, route ()); (4, [||]) |]);
          ("path not ending at the landmark", [| (5, route ()); (6, [| sc.landmark; elsewhere |]) |]);
          ("negative router", [| (7, route ()); (8, [| -1; sc.landmark |]) |]);
        ]
      in
      List.iter
        (fun (what, batch) ->
          (match Registry_intf.insert_many reg batch with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.fail (Printf.sprintf "%s: %s accepted" name what));
          Registry_intf.check_invariants reg;
          Alcotest.(check int)
            (Printf.sprintf "%s: %s applies nothing" name what)
            1 (Registry_intf.member_count reg))
        bad_batches)
    specs

(* --- Invariants and agreement under churn ------------------------------ *)

let qcheck_churn =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun p -> `Insert (p mod 25)) small_nat);
          (2, map (fun p -> `Remove (p mod 25)) small_nat);
          (2, map (fun p -> `Handover (p mod 25)) small_nat);
        ])
  in
  QCheck.Test.make ~name:"backends agree through insert/remove/handover churn" ~count:15
    QCheck.(make Gen.(pair small_nat (list_size (int_range 1 40) op_gen)))
    (fun (seed, ops) ->
      let sc = transit_stub_scenario ~seed:(seed mod 5) in
      let rng = Prelude.Prng.create (seed + 13) in
      let regs = fresh_registries sc in
      let members = Hashtbl.create 32 in
      List.iter
        (fun op ->
          (match op with
          | `Insert p ->
              let routers = sc.route_of (attach_router sc rng) in
              if Hashtbl.mem members p then
                List.iter
                  (fun reg ->
                    match Registry_intf.insert reg ~peer:p ~routers with
                    | exception Invalid_argument _ -> ()
                    | () -> Alcotest.fail "duplicate insert accepted")
                  regs
              else begin
                List.iter (fun reg -> Registry_intf.insert reg ~peer:p ~routers) regs;
                Hashtbl.replace members p ()
              end
          | `Remove p ->
              if Hashtbl.mem members p then begin
                List.iter (fun reg -> Registry_intf.remove reg p) regs;
                Hashtbl.remove members p
              end
              else
                List.iter
                  (fun reg ->
                    match Registry_intf.remove reg p with
                    | exception Not_found -> ()
                    | () -> Alcotest.fail "unknown remove accepted")
                  regs
          | `Handover p ->
              if Hashtbl.mem members p then begin
                let routers = sc.route_of (attach_router sc rng) in
                List.iter
                  (fun reg ->
                    Registry_intf.remove reg p;
                    Registry_intf.insert reg ~peer:p ~routers)
                  regs
              end);
          List.iter Registry_intf.check_invariants regs;
          match List.map Registry_intf.member_count regs with
          | [] -> ()
          | reference :: rest ->
              List.iter (fun c -> Alcotest.(check int) "member count" reference c) rest)
        ops;
      Hashtbl.iter
        (fun peer () ->
          check_agreement
            ~what:(Printf.sprintf "post-churn query_member %d" peer)
            (List.map2
               (fun spec reg -> (spec_name spec, Registry_intf.query_member reg ~peer ~k:4))
               specs regs))
        members;
      true)

(* --- Server content digests per backend ---------------------------------- *)

(* The server owns the content digest: an XOR over per-registration
   hashes, so three laws pin it down whatever backend stores the paths.
   Join order cannot matter, every backend must agree on identical content,
   and leaving must land exactly on the digest of a server that only ever
   saw the remainder. *)
let qcheck_digest =
  QCheck.Test.make ~name:"content digests are order-free and backend-free" ~count:15
    QCheck.(make Gen.(pair small_nat bool))
    (fun (seed, waxman) ->
      let sc = if waxman then waxman_scenario ~seed else transit_stub_scenario ~seed in
      let oracle = Traceroute.Route_oracle.create sc.graph in
      let rng = Prelude.Prng.create (seed + 13) in
      let landmarks = Landmark.place sc.graph Landmark.Medium_degree ~count:3 ~rng in
      let attach = List.init 30 (fun peer -> (peer, attach_router sc rng)) in
      let client = Client.create oracle ~landmarks in
      let server_of spec joins =
        let server = Server.create ~backend:(backend_of spec) oracle ~landmarks in
        List.iter
          (fun (peer, attach_router) -> ignore (Server.join server ~client ~peer ~attach_router))
          joins;
        server
      in
      let reference = Server.digest (server_of (List.hd specs) attach) in
      Alcotest.(check bool) "nonempty digest differs from the empty one" true (reference <> 0L);
      List.iter
        (fun spec ->
          let name = spec_name spec in
          let forward = server_of spec attach in
          Alcotest.(check int64)
            (name ^ ": join order cannot change the digest")
            (Server.digest forward)
            (Server.digest (server_of spec (List.rev attach)));
          Alcotest.(check int64)
            (name ^ ": digest agrees with the path tree's")
            reference (Server.digest forward);
          (* The even peers leave; the digest must land on that of a server
             that only ever saw the odd ones. *)
          List.iter (fun (peer, _) -> if peer mod 2 = 0 then Server.leave forward ~peer) attach;
          Alcotest.(check int64)
            (name ^ ": leaving inverts the digest")
            (Server.digest (server_of spec (List.filter (fun (peer, _) -> peer mod 2 = 1) attach)))
            (Server.digest forward);
          Server.check_invariants forward)
        specs;
      true)

(* --- Snapshot / restore per backend --------------------------------------- *)

(* The snapshot format is the server's, so every backend must restore from
   it alike: same answers, same digest, and a state that keeps working. *)
let populated_server spec ~seed ~peers =
  let sc = transit_stub_scenario ~seed in
  let oracle = Traceroute.Route_oracle.create sc.graph in
  let rng = Prelude.Prng.create (seed + 3) in
  let landmarks = Landmark.place sc.graph Landmark.Medium_degree ~count:3 ~rng in
  let server = Server.create ~backend:(backend_of spec) oracle ~landmarks in
  let client = Client.create oracle ~landmarks in
  for peer = 0 to peers - 1 do
    ignore (Server.join server ~client ~peer ~attach_router:(attach_router sc rng))
  done;
  (sc, oracle, server)

let test_snapshot_roundtrip () =
  List.iter
    (fun spec ->
      let name = spec_name spec in
      let _, oracle, server = populated_server spec ~seed:2 ~peers:30 in
      let blob = Server.snapshot server in
      Alcotest.(check bool) (name ^ ": snapshot deterministic") true (blob = Server.snapshot server);
      match Server.restore ~backend:(backend_of spec) oracle blob with
      | Error e -> Alcotest.fail (Printf.sprintf "%s: restore failed: %s" name e)
      | Ok restored ->
          Server.check_invariants restored;
          Alcotest.(check int) (name ^ ": peer count") (Server.peer_count server)
            (Server.peer_count restored);
          Alcotest.(check (array int)) (name ^ ": landmarks") (Server.landmarks server)
            (Server.landmarks restored);
          Alcotest.(check int64) (name ^ ": digest preserved") (Server.digest server)
            (Server.digest restored);
          for peer = 0 to 29 do
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s: peer %d answers preserved" name peer)
              (Server.neighbors server ~peer ~k:5)
              (Server.neighbors restored ~peer ~k:5)
          done;
          (* The restored server must keep working. *)
          let client = Client.create oracle ~landmarks:(Server.landmarks restored) in
          ignore (Server.join restored ~client ~peer:100 ~attach_router:0);
          Server.leave restored ~peer:0;
          Server.check_invariants restored;
          Alcotest.(check int) (name ^ ": evolved population") 30 (Server.peer_count restored))
    specs

let test_restore_rejects_corruption () =
  List.iter
    (fun spec ->
      let name = spec_name spec in
      let _, oracle, server = populated_server spec ~seed:5 ~peers:8 in
      let blob = Server.snapshot server in
      let expect_error what data =
        match Server.restore ~backend:(backend_of spec) oracle data with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail (Printf.sprintf "%s: %s not rejected" name what)
      in
      (* Every strict prefix must fail cleanly... *)
      for len = 0 to String.length blob - 1 do
        expect_error (Printf.sprintf "prefix of %d bytes" len) (String.sub blob 0 len)
      done;
      (* ...as must trailing garbage and an alien version byte. *)
      expect_error "trailing bytes" (blob ^ "\x00");
      expect_error "bad version" ("\xfe" ^ String.sub blob 1 (String.length blob - 1)))
    specs

let test_trace_counters_uniform () =
  List.iter
    (fun spec ->
      let name = spec_name spec in
      let sc = transit_stub_scenario ~seed:4 in
      let trace = Simkit.Trace.create () in
      let reg = Registry_intf.create ~trace (backend_of spec) ~landmark:sc.landmark in
      let rng = Prelude.Prng.create 11 in
      for peer = 0 to 9 do
        Registry_intf.insert reg ~peer ~routers:(sc.route_of (attach_router sc rng))
      done;
      for peer = 0 to 9 do
        ignore (Registry_intf.query_member reg ~peer ~k:3)
      done;
      ignore (Registry_intf.query reg ~routers:(sc.route_of sc.landmark) ~k:3 ());
      Registry_intf.remove reg 0;
      Alcotest.(check int) (name ^ ": inserts traced") 10
        (Simkit.Trace.counter trace "registry_insert");
      Alcotest.(check int) (name ^ ": queries traced") 11
        (Simkit.Trace.counter trace "registry_query");
      Alcotest.(check int) (name ^ ": removes traced") 1
        (Simkit.Trace.counter trace "registry_remove");
      Alcotest.(check int)
        (name ^ ": stats report the population")
        9
        (Option.value ~default:(-1) (List.assoc_opt "members" (Registry_intf.stats reg))))
    specs

let test_backend_names () =
  Alcotest.(check (list string))
    "spec names round-trip through of_string"
    (List.map spec_name specs)
    (List.map
       (fun spec ->
         match Eval.Backends.of_string (spec_name spec) with
         | Ok s -> spec_name s
         | Error e -> e)
       specs);
  (match Eval.Backends.of_string "sharded:4" with
  | Error e ->
      Alcotest.(check string) "error names the backends"
        "unknown backend \"sharded:4\" (expected tree, naive or dht)" e
  | Ok _ -> Alcotest.fail "sharded:4 accepted");
  match Eval.Backends.of_string "btree" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown backend accepted"

let suite =
  ( "registry",
    [
      Alcotest.test_case "snapshot roundtrip per backend" `Quick test_snapshot_roundtrip;
      Alcotest.test_case "restore rejects corruption" `Quick test_restore_rejects_corruption;
      Alcotest.test_case "uniform trace counters" `Quick test_trace_counters_uniform;
      Alcotest.test_case "backend spec parsing" `Quick test_backend_names;
      Alcotest.test_case "batch insert validation is atomic" `Quick
        test_batch_rejects_bad_entries_atomically;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) qcheck_equivalence;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) qcheck_batch_agreement;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) qcheck_churn;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) qcheck_digest;
    ] )
