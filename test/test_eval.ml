(* Eval: workload, paper drawing pins, protocol timing, experiment smoke. *)

let test_paper_drawing_pins () =
  let d = Eval.Paper_drawing.build () in
  Alcotest.(check int) "16 nodes" 16 (Topology.Graph.node_count d.graph);
  Alcotest.(check bool) "connected" true (Topology.Graph.is_connected d.graph);
  (* The drawing's core routers have the large degrees. *)
  Alcotest.(check int) "ra degree" 4 (Topology.Graph.degree d.graph d.ra);
  Alcotest.(check int) "rc degree" 4 (Topology.Graph.degree d.graph d.rc);
  Alcotest.(check int) "peers are leaves" 1 (Topology.Graph.degree d.graph d.p1);
  Alcotest.(check string) "names" "rc" (Eval.Paper_drawing.name_of d d.rc);
  (* The exact situation of the figure: dtree(p1,p2) = 6 via rc, d(p1,p2) = 3. *)
  let oracle = Traceroute.Route_oracle.create d.graph in
  let tree = Nearby.Path_tree.create ~landmark:d.lmk in
  Array.iteri
    (fun peer attach ->
      let routers = Array.of_list (Traceroute.Route_oracle.route oracle ~src:attach ~dst:d.lmk) in
      Nearby.Path_tree.insert tree ~peer ~routers)
    (Eval.Paper_drawing.peer_attach_routers d);
  (match Nearby.Path_tree.meeting_point tree 0 1 with
  | Some (router, d1, d2) ->
      Alcotest.(check int) "meeting at rc" d.rc router;
      Alcotest.(check int) "p1 three hops up" 3 d1;
      Alcotest.(check int) "p2 three hops up" 3 d2
  | None -> Alcotest.fail "no meeting point");
  Alcotest.(check int) "true distance shorter" 3 (Topology.Bfs.distance d.graph d.p1 d.p2);
  (* p2 is still ranked first for p1. *)
  match Nearby.Path_tree.query_member tree ~peer:0 ~k:1 with
  | [ (p, 6) ] -> Alcotest.(check int) "p2 first" 1 p
  | other ->
      Alcotest.fail
        (Printf.sprintf "unexpected reply length %d or distance" (List.length other))

let test_workload_build () =
  let w = Eval.Workload.build ~routers:300 ~landmark_count:3 ~peers:50 ~seed:1 () in
  Alcotest.(check int) "peer count" 50 (Eval.Workload.peer_count w);
  Alcotest.(check int) "landmarks" 3 (Array.length w.landmarks);
  (* Paper setup: every peer sits on a degree-1 router. *)
  Array.iter
    (fun r -> Alcotest.(check int) "degree-1 attachment" 1 (Topology.Graph.degree (Eval.Workload.graph w) r))
    w.peer_routers;
  (* Landmarks never sit on leaf routers (medium-degree policy). *)
  Array.iter
    (fun l -> Alcotest.(check bool) "landmark degree >= 2" true (Topology.Graph.degree (Eval.Workload.graph w) l >= 2))
    w.landmarks

let test_workload_deterministic () =
  let a = Eval.Workload.build ~routers:300 ~peers:20 ~seed:5 () in
  let b = Eval.Workload.build ~routers:300 ~peers:20 ~seed:5 () in
  Alcotest.(check (array int)) "same peers" a.peer_routers b.peer_routers;
  Alcotest.(check (array int)) "same landmarks" a.landmarks b.landmarks;
  let c = Eval.Workload.build ~routers:300 ~peers:20 ~seed:6 () in
  Alcotest.(check bool) "seed changes placement" true
    (a.peer_routers <> c.peer_routers || a.landmarks <> c.landmarks)

(* A lone server at [router] on a loss-free transport: the join path every
   experiment uses. *)
let single_protocol ?client ?latency ~engine oracle ~router server =
  let transport = Simkit.Transport.create ?latency engine oracle in
  ( transport,
    Nearby.Protocol.create_resilient ?client ~rpc:(Simkit.Rpc.create transport)
      (Nearby.Cluster.single ~transport ~router server) )

let test_protocol_timing () =
  let d = Eval.Paper_drawing.build () in
  let oracle = Traceroute.Route_oracle.create d.graph in
  let server = Nearby.Server.create oracle ~landmarks:[| d.lmk |] in
  let engine = Simkit.Engine.create () in
  let transport, protocol = single_protocol ~engine oracle ~router:d.lmk server in
  (* p1 is 5 hops from the single landmark at 1 ms per hop: round 1 = the
     RTT to the landmark (10 ms), by when hop 2 has answered the TTL probes
     sent with the ping; the RPC to the server at the landmark = 10 ms.
     The tree is empty, so the server asks for the rest, whose TTLs left
     with the first round and were back as it ended; a second RPC
     (10 ms). *)
  let client = Nearby.Client.create oracle ~landmarks:[| d.lmk |] in
  let measurement = Nearby.Client.measure client ~attach_router:d.p1 in
  Alcotest.(check (float 1e-9)) "measurement = ping + traceroute" 20.0
    (Nearby.Client.duration_ms measurement);
  let first_ms =
    Nearby.Client.first_round_ms client (Nearby.Client.measure_join client ~attach_router:d.p1)
  in
  Alcotest.(check (float 1e-9)) "first round = ping" 10.0 first_ms;
  let server_rtt = 2.0 *. Simkit.Transport.one_way_delay transport ~src:d.p1 ~dst:d.lmk in
  Alcotest.(check (float 1e-9)) "server RTT" 10.0 server_rtt;
  let completed = ref None in
  let join peer =
    let start = Simkit.Engine.now engine in
    Nearby.Protocol.join protocol ~peer ~attach_router:d.p1 ~k:2 ~on_complete:(fun info reply ->
        completed := Some (info, reply, Simkit.Engine.now engine -. start));
    Alcotest.(check bool) "not yet" true (!completed = None);
    Simkit.Engine.run engine;
    match !completed with
    | Some c ->
        completed := None;
        c
    | None -> Alcotest.fail "join never completed"
  in
  let info, reply, took = join 0 in
  Alcotest.(check (float 1e-9)) "completed at 10 + 10 + 10 ms" 30.0 took;
  Alcotest.(check (float 1e-9)) "completed at both rounds"
    (first_ms +. server_rtt +. server_rtt)
    took;
  Alcotest.(check int) "registered under lmk" d.lmk info.landmark;
  Alcotest.(check (list (pair int int))) "no peers yet" [] reply;
  Alcotest.(check int) "server has the peer" 1 (Nearby.Server.peer_count server);
  (* The tree now holds p1's routers: the next join from p1 stops after
     its first round. *)
  let _, reply', took' = join 1 in
  Alcotest.(check (float 1e-9)) "completed at 10 + 10 ms" 20.0 took';
  Alcotest.(check (list (pair int int))) "peer 0 answers" [ (0, 0) ] reply';
  Alcotest.(check (option (array int))) "same route as the full trace"
    (Nearby.Server.path_of server 0) (Nearby.Server.path_of server 1);
  Alcotest.(check int) "one continue round" 1
    (Simkit.Trace.counter (Nearby.Server.trace server) "join_continue");
  (* The same holds for every peer on E5's latency-weighted map, where the
     measurement reads the latency table: a join takes its first round
     and a server RTT, or, continued, the later of that and its whole
     trace, then a second server RTT. *)
  let w =
    Eval.Workload.build ~routers:300 ~landmark_count:4
      ~latency:(Topology.Latency.Core_weighted { core_ms = 2.0; edge_ms = 15.0; threshold = 8 })
      ~peers:12 ~seed:3 ()
  in
  let latency = w.ctx.latency in
  let server = Nearby.Server.create w.ctx.oracle ~landmarks:w.landmarks in
  let client = Nearby.Client.create ?latency w.ctx.oracle ~landmarks:w.landmarks in
  let router = w.landmarks.(0) in
  let engine = Simkit.Engine.create () in
  let transport, protocol =
    single_protocol ~client ?latency ~engine w.ctx.oracle ~router server
  in
  let expected =
    Array.map
      (fun attach_router ->
        let rtt = 2.0 *. Simkit.Transport.one_way_delay transport ~src:attach_router ~dst:router in
        let m = Nearby.Client.measure_join client ~attach_router in
        let first = Nearby.Client.first_round_ms client m +. rtt in
        (first, Float.max first (Nearby.Client.duration_ms m) +. rtt))
      w.peer_routers
  in
  let took = Array.make (Array.length w.peer_routers) nan in
  Array.iteri
    (fun peer attach_router ->
      Nearby.Protocol.join protocol ~peer ~attach_router ~k:3 ~on_complete:(fun _ _ ->
          took.(peer) <- Simkit.Engine.now engine))
    w.peer_routers;
  Simkit.Engine.run engine;
  let continued = ref 0 in
  Array.iteri
    (fun peer at ->
      let first, second = expected.(peer) in
      if Float.abs (at -. second) <= 1e-9 then incr continued
      else
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "peer %d at its first round + server RTT" peer)
          first at)
    took;
  Alcotest.(check int) "continued joins = continue answers"
    (Simkit.Trace.counter (Nearby.Server.trace server) "join_continue")
    !continued

let test_vivaldi_setup_delay () =
  Alcotest.(check (float 1e-9)) "rounds x period" 2500.0
    (Nearby.Protocol.vivaldi_setup_delay ~rounds:10 ~round_period_ms:250.0);
  Alcotest.check_raises "negative" (Invalid_argument "Protocol.vivaldi_setup_delay: negative input")
    (fun () -> ignore (Nearby.Protocol.vivaldi_setup_delay ~rounds:(-1) ~round_period_ms:1.0))

let tiny_fig2 = { Eval.Fig2.routers = 300; landmark_count = 4; k = 3; peer_counts = [ 40; 80 ]; seeds = [ 1 ] }

let test_fig2_shape () =
  let rows = Eval.Fig2.run tiny_fig2 in
  Alcotest.(check int) "one row per population" 2 (List.length rows);
  List.iter
    (fun (r : Eval.Fig2.row) ->
      Alcotest.(check bool) "ratios at least 1" true (r.ratio_proposed >= 1.0 && r.ratio_random >= 1.0);
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: proposed %.3f < random %.3f" r.n r.ratio_proposed r.ratio_random)
        true
        (r.ratio_proposed < r.ratio_random);
      Alcotest.(check bool) "hit ratio sane" true (r.hit_proposed >= 0.0 && r.hit_proposed <= 1.0))
    rows

let test_fig2_print_smoke () =
  (* print must not raise and must mention both series. *)
  let rows = Eval.Fig2.run { tiny_fig2 with peer_counts = [ 30 ] } in
  Eval.Fig2.print rows

let test_complexity_rows () =
  let rows = Eval.Complexity.run { Eval.Complexity.quick_config with routers = 300; populations = [ 200; 800 ]; queries_per_size = 100 } in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Eval.Complexity.row) ->
      Alcotest.(check bool) "positive timings" true (r.insert_us >= 0.0 && r.query_us >= 0.0))
    rows

let test_landmark_sweep_smoke () =
  let config =
    {
      Eval.Landmark_sweep.routers = 300;
      peers = 40;
      k = 3;
      counts = [ 1; 4 ];
      policies = [ Nearby.Landmark.Medium_degree ];
      seeds = [ 1 ];
    }
  in
  let rows = Eval.Landmark_sweep.run config in
  Alcotest.(check int) "rows" 2 (List.length rows);
  List.iter
    (fun (r : Eval.Landmark_sweep.row) ->
      Alcotest.(check bool) "ratio >= 1" true (r.ratio >= 1.0))
    rows;
  let ablation = Eval.Landmark_sweep.run_round1_ablation config in
  Alcotest.(check int) "ablation rows" 2 (List.length ablation);
  (* With a single landmark, closest and random choice coincide. *)
  match ablation with
  | first :: _ ->
      Alcotest.(check (float 1e-6)) "1 landmark: choice irrelevant" first.ratio_closest
        first.ratio_random_lmk
  | [] -> Alcotest.fail "no ablation rows"

let test_truncate_exp_smoke () =
  let config =
    {
      Eval.Truncate_exp.routers = 300;
      peers = 40;
      landmark_count = 4;
      k = 3;
      strategies = Traceroute.Truncate.[ Full; Last_k 3 ];
      seeds = [ 1 ];
    }
  in
  let rows = Eval.Truncate_exp.run config in
  Alcotest.(check int) "rows" 2 (List.length rows);
  match rows with
  | [ full; last ] ->
      Alcotest.(check bool) "full quality at least as good" true (full.ratio <= last.ratio +. 0.3);
      Alcotest.(check bool) "truncated tool is cheaper" true
        (last.mean_probes_per_join < full.mean_probes_per_join)
  | _ -> Alcotest.fail "expected two rows"

(* E4's gates on a tiny run: two gates per strategy, and the trade-off's
   shape holds as flags. *)
let test_truncate_gates () =
  let rows =
    Eval.Truncate_exp.run
      {
        Eval.Truncate_exp.routers = 300;
        peers = 40;
        landmark_count = 4;
        k = 3;
        strategies = Traceroute.Truncate.[ Full; Every_k 2; Last_k 2 ];
        seeds = [ 1 ];
      }
  in
  let gates = Eval.Truncate_exp.gates rows in
  Alcotest.(check (list string)) "gate names"
    [
      "truncate/full/d_over_dclosest";
      "truncate/full/probes_per_join";
      "truncate/every-2/d_over_dclosest";
      "truncate/every-2/probes_per_join";
      "truncate/last-2/d_over_dclosest";
      "truncate/last-2/probes_per_join";
      "truncate/full_best_quality";
      "truncate/full_probes_most";
    ]
    (List.map (fun (g : Eval.Regression.gate) -> g.name) gates);
  List.iter
    (fun (g : Eval.Regression.gate) ->
      Alcotest.(check bool) (g.name ^ " finite") true (Float.is_finite g.value);
      if List.mem g.name [ "truncate/full_best_quality"; "truncate/full_probes_most" ] then
        Alcotest.(check (float 0.0)) (g.name ^ " holds") 1.0 g.value)
    gates;
  (* The gates survive their JSON round trip, as [bench regress] reads
     them: each keeps its name, direction and tolerance, and its value to
     the 9 significant digits it is written with; a document written again
     from what was read compares equal to it, gate for gate. *)
  let read gates =
    let doc = Printf.sprintf {|{"gates": %s}|} (Eval.Regression.to_json gates) in
    match Result.bind (Simkit.Json.parse doc) Eval.Regression.of_document with
    | Ok read -> read
    | Error e -> Alcotest.fail e
  in
  let once = read gates in
  Alcotest.(check int) "every gate read back" (List.length gates) (List.length once);
  List.iter2
    (fun (g : Eval.Regression.gate) (r : Eval.Regression.gate) ->
      Alcotest.(check string) "name kept" g.name r.name;
      Alcotest.(check bool) (g.name ^ " direction kept") true (g.direction = r.direction);
      Alcotest.(check (float 0.0)) (g.name ^ " tolerance kept") g.tolerance r.tolerance;
      Alcotest.(check bool) (g.name ^ " value kept") true
        (Float.abs (r.value -. g.value) <= 1e-8 *. Float.abs g.value))
    gates once;
  Alcotest.(check int) "a re-written document passes against the first" 0
    (List.length
       (Eval.Regression.failures
          (Eval.Regression.compare_gates ~baseline:once ~current:(read once))))

(* [regress] shows a move inside a band: the moved gate passes, carries
   its signed change and counts as moved; the unmoved gate carries
   none. *)
let test_regression_shows_moves () =
  let open Eval.Regression in
  let read gates =
    match
      Result.bind (Simkit.Json.parse (Printf.sprintf {|{"gates": %s}|} (to_json gates))) of_document
    with
    | Ok gates -> gates
    | Error e -> Alcotest.fail e
  in
  let baseline = read [ wall_clock_ratio "x/moved" 200.0 Lower_better 0.1; exact "x/still" 3.0 ] in
  let current = read [ wall_clock_ratio "x/moved" 190.0 Lower_better 0.1; exact "x/still" 3.0 ] in
  let comparisons = compare_gates ~baseline ~current in
  Alcotest.(check int) "both pass" 0 (List.length (failures comparisons));
  Alcotest.(check (list (option (float 1e-12))))
    "signed relative change" [ Some (-0.05); None ] (List.map change comparisons);
  Alcotest.(check int) "moved gates counted" 1 (List.length (List.filter_map change comparisons))

let test_super_peer_exp_smoke () =
  let rows =
    Eval.Super_peer_exp.run
      { Eval.Super_peer_exp.routers = 300; peers = 40; landmark_count = 4; k = 3; seeds = [ 1 ] }
  in
  match rows with
  | [ r ] ->
      Alcotest.(check bool) "ratios >= 1" true (r.ratio_central >= 1.0 && r.ratio_super >= 1.0);
      Alcotest.(check bool) "imbalance >= 1" true (r.load_imbalance >= 1.0);
      Alcotest.(check bool) "regions partition peers" true
        (r.max_region_members >= r.min_region_members);
      (* Pinned: how the super-peer half is built must not move the row. *)
      Alcotest.(check (float 1e-9)) "central D/Dclosest" 1.119327731092437 r.ratio_central;
      Alcotest.(check (float 1e-9)) "super D/Dclosest" 1.0890756302521007 r.ratio_super;
      Alcotest.(check (float 1e-9)) "imbalance" 2.4 r.load_imbalance;
      Alcotest.(check int) "max region" 24 r.max_region_members;
      Alcotest.(check int) "min region" 3 r.min_region_members;
      Alcotest.(check (list string))
        "gates per seed"
        [
          "superpeers/1/central_d_over_dclosest";
          "superpeers/1/super_d_over_dclosest";
          "superpeers/1/max_region_members";
          "superpeers/1/min_region_members";
        ]
        (List.map (fun (g : Eval.Regression.gate) -> g.name) (Eval.Super_peer_exp.gates rows))
  | _ -> Alcotest.fail "expected one row"

let test_load_split () =
  let w = Eval.Workload.build ~routers:300 ~landmark_count:4 ~peers:40 ~seed:2 () in
  let server = Nearby.Server.create w.ctx.oracle ~landmarks:w.landmarks in
  let client = Nearby.Client.create w.ctx.oracle ~landmarks:w.landmarks in
  Alcotest.(check (list int)) "empty server" [ 0; 0; 0; 0 ] (Eval.Measure.landmark_members server);
  Alcotest.(check (float 0.0)) "no members is an even split" 1.0
    (Eval.Measure.max_over_mean (Eval.Measure.landmark_members server));
  Alcotest.(check (float 0.0)) "no counts either" 1.0 (Eval.Measure.max_over_mean []);
  Array.iteri
    (fun peer attach_router -> ignore (Nearby.Server.join server ~client ~peer ~attach_router))
    w.peer_routers;
  let members = Eval.Measure.landmark_members server in
  Alcotest.(check int) "one count per landmark" 4 (List.length members);
  Alcotest.(check int) "counts sum to the population" (Nearby.Server.peer_count server)
    (List.fold_left ( + ) 0 members);
  Alcotest.(check bool) "at least 1" true (Eval.Measure.max_over_mean members >= 1.0);
  Alcotest.(check (float 1e-12)) "max over mean" 1.5 (Eval.Measure.max_over_mean [ 3; 1 ]);
  Alcotest.(check (float 1e-12)) "even" 1.0 (Eval.Measure.max_over_mean [ 2; 2; 2 ])

let test_churn_exp_smoke () =
  let config =
    {
      Eval.Churn_exp.quick_config with
      routers = 300;
      spec =
        {
          Simkit.Churn.arrival_rate_per_s = 1.0;
          session = Simkit.Churn.Exponential { mean_ms = 60_000.0 };
          failure_fraction = 0.2;
          mobility_fraction = 0.1;
          horizon_ms = 120_000.0;
        };
      checkpoints = 2;
      seed = 2;
    }
  in
  let checkpoints = Eval.Churn_exp.run config in
  Alcotest.(check int) "checkpoints" 2 (List.length checkpoints);
  List.iter
    (fun (c : Eval.Churn_exp.checkpoint) ->
      Alcotest.(check bool) "live peers non-negative" true (c.live_peers >= 0);
      Alcotest.(check bool) "stale fraction in [0,1]" true
        (c.stale_fraction >= 0.0 && c.stale_fraction <= 1.0);
      if not (Float.is_nan c.ratio) then Alcotest.(check bool) "ratio >= 1" true (c.ratio >= 0.99))
    checkpoints

let test_stretch_analysis_smoke () =
  let rows =
    Eval.Stretch_analysis.run
      { Eval.Stretch_analysis.routers = 400; landmark_counts = [ 1; 4 ]; pairs = 300; seed = 1 }
  in
  Alcotest.(check int) "rows" 2 (List.length rows);
  (match rows with
  | single :: multi :: _ ->
      Alcotest.(check (float 1e-9)) "one landmark: every pair shares it" 1.0
        single.same_landmark_fraction;
      Alcotest.(check bool) "more landmarks, fewer shared" true
        (multi.same_landmark_fraction < single.same_landmark_fraction)
  | _ -> Alcotest.fail "expected two rows");
  List.iter
    (fun (r : Eval.Stretch_analysis.row) ->
      Alcotest.(check bool) "stretch >= 1" true (r.mean_stretch >= 1.0 -. 1e-9);
      Alcotest.(check bool) "exact fraction in [0,1]" true
        (r.exact_fraction >= 0.0 && r.exact_fraction <= 1.0);
      Alcotest.(check bool) "p95 >= mean is typical" true
        (Float.is_nan r.p95_stretch || r.p95_stretch >= 1.0))
    rows

let test_complexity_naive_column () =
  let rows =
    Eval.Complexity.run
      { Eval.Complexity.quick_config with routers = 300; populations = [ 200; 1600 ]; queries_per_size = 200 }
  in
  match rows with
  | [ small; large ] ->
      (* The exhaustive scan must degrade much faster than the path tree:
         8x the population should cost clearly more per naive query. *)
      Alcotest.(check bool)
        (Printf.sprintf "naive scales badly (%.1f -> %.1f us)" small.naive_query_us large.naive_query_us)
        true
        (large.naive_query_us > 2.0 *. small.naive_query_us)
  | _ -> Alcotest.fail "expected two rows"

let test_churn_heartbeat_mode () =
  (* Regression: heartbeat loops must not keep the engine alive past the
     horizon (the run is bounded), and detection must actually deregister
     crashed peers. *)
  let config =
    {
      Eval.Churn_exp.quick_config with
      routers = 300;
      spec =
        {
          Simkit.Churn.arrival_rate_per_s = 1.0;
          session = Simkit.Churn.Exponential { mean_ms = 40_000.0 };
          failure_fraction = 0.4;
          mobility_fraction = 0.1;
          horizon_ms = 120_000.0;
        };
      detection =
        Eval.Churn_exp.Heartbeat
          {
            Simkit.Failure_detector.heartbeat_period_ms = 2_000.0;
            timeout_ms = 9_000.0;
            heartbeat_bytes = 32;
          };
      checkpoints = 2;
      seed = 4;
    }
  in
  let checkpoints = Eval.Churn_exp.run config in
  Alcotest.(check int) "terminates with both checkpoints" 2 (List.length checkpoints);
  let last = List.nth checkpoints 1 in
  Alcotest.(check bool) "heartbeats flowed" true (last.heartbeat_messages > 0);
  Alcotest.(check bool) "staleness bounded" true (last.stale_fraction < 0.5)

let test_setup_delay_smoke () =
  let { Eval.Setup_delay.rows; rpc_timeouts } =
    Eval.Setup_delay.run
      {
        Eval.Setup_delay.routers = 300;
        peers = 30;
        landmark_count = 4;
        k = 3;
        vivaldi_rounds = [ 2 ];
        round_period_ms = 250.0;
        seed = 1;
      }
  in
  Alcotest.(check int) "proposed + gnp + meridian + 1 vivaldi" 4 (List.length rows);
  let find name = List.find (fun (r : Eval.Setup_delay.row) -> r.method_name = name) rows in
  let proposed = find "proposed" and vivaldi = find "vivaldi-2r" in
  let meridian = find "meridian" in
  Alcotest.(check bool) "proposed has a real setup time" true
    (proposed.setup_ms > 0.0 && Float.is_finite proposed.setup_ms);
  Alcotest.(check bool) "meridian has a real setup time" true
    (meridian.setup_ms > 0.0 && Float.is_finite meridian.setup_ms);
  Alcotest.(check (float 1e-9)) "vivaldi setup = rounds x period" 500.0 vivaldi.setup_ms;
  List.iter
    (fun (r : Eval.Setup_delay.row) -> Alcotest.(check bool) "ratio >= 1" true (r.ratio >= 1.0))
    rows
  ;
  Alcotest.(check int) "loss-free joins never time out" 0 rpc_timeouts

let test_topology_sensitivity_smoke () =
  let rows =
    Eval.Topology_sensitivity.run
      {
        Eval.Topology_sensitivity.nodes = 400;
        peers = 80;
        landmark_count = 4;
        k = 4;
        families = [ Eval.Topology_sensitivity.Magoni; Eval.Topology_sensitivity.Er ];
        seeds = [ 1 ];
      }
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let find f = List.find (fun (r : Eval.Topology_sensitivity.row) -> r.family = f) rows in
  let magoni = find Eval.Topology_sensitivity.Magoni and er = find Eval.Topology_sensitivity.Er in
  Alcotest.(check bool) "magoni is heavier tailed" true (magoni.gini > er.gini);
  List.iter
    (fun (r : Eval.Topology_sensitivity.row) ->
      Alcotest.(check bool) "ratios >= 1" true (r.ratio_proposed >= 1.0 && r.ratio_random >= 1.0);
      Alcotest.(check bool) "proposed no worse than random" true
        (r.ratio_proposed <= r.ratio_random +. 0.2))
    rows

let suite =
  ( "eval",
    [
      Alcotest.test_case "paper drawing pins" `Quick test_paper_drawing_pins;
      Alcotest.test_case "workload build" `Quick test_workload_build;
      Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
      Alcotest.test_case "protocol timing" `Quick test_protocol_timing;
      Alcotest.test_case "vivaldi setup delay" `Quick test_vivaldi_setup_delay;
      Alcotest.test_case "fig2 shape" `Slow test_fig2_shape;
      Alcotest.test_case "fig2 print" `Slow test_fig2_print_smoke;
      Alcotest.test_case "complexity rows" `Slow test_complexity_rows;
      Alcotest.test_case "landmark sweep" `Slow test_landmark_sweep_smoke;
      Alcotest.test_case "truncate experiment" `Slow test_truncate_exp_smoke;
      Alcotest.test_case "truncate gates" `Slow test_truncate_gates;
      Alcotest.test_case "regress shows moves" `Quick test_regression_shows_moves;
      Alcotest.test_case "super-peer experiment" `Slow test_super_peer_exp_smoke;
      Alcotest.test_case "churn experiment" `Slow test_churn_exp_smoke;
      Alcotest.test_case "churn heartbeat mode" `Slow test_churn_heartbeat_mode;
      Alcotest.test_case "setup-delay experiment" `Slow test_setup_delay_smoke;
      Alcotest.test_case "stretch analysis" `Slow test_stretch_analysis_smoke;
      Alcotest.test_case "complexity naive column" `Slow test_complexity_naive_column;
      Alcotest.test_case "topology sensitivity" `Slow test_topology_sensitivity_smoke;
      Alcotest.test_case "load split" `Quick test_load_split;
    ] )
