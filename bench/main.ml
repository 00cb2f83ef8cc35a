(* Benchmark harness.

   Two layers:
   - Bechamel micro-benchmarks of the paper's complexity-critical operations
     (path-tree insertion and query at growing populations - the O(log n) /
     O(1) claim - plus substrate hot paths);
   - regeneration of every evaluation artifact in DESIGN.md's experiment
     index (fig2 and the E1..E5 tables), printed as the rows the paper
     reports.

   `dune exec bench/main.exe` runs everything in quick mode;
   `dune exec bench/main.exe -- <experiment> [--full]` runs one experiment,
   optionally at the paper-scale configuration. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks *)

type tree_fixture = {
  tree : Nearby.Path_tree.t;
  routes : int array array;  (* leaf index -> route to the landmark *)
  population : int;
  mutable next_peer : int;
}

let make_fixture ~routers ~population ~seed =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params routers) ~seed in
  let rng = Prelude.Prng.create seed in
  let landmark =
    (Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:1 ~rng).(0)
  in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let routes =
    Array.map
      (fun leaf -> Array.of_list (Traceroute.Route_oracle.route oracle ~src:leaf ~dst:landmark))
      map.leaves
  in
  let tree = Nearby.Path_tree.create ~landmark in
  for peer = 0 to population - 1 do
    Nearby.Path_tree.insert tree ~peer ~routers:routes.(peer mod Array.length routes)
  done;
  { tree; routes; population; next_peer = population }

let micro_tests () =
  let sizes = [ 1_000; 4_000; 16_000; 64_000 ] in
  let fixtures = List.map (fun n -> (n, make_fixture ~routers:2000 ~population:n ~seed:7)) sizes in
  let insert_tests =
    let make (n, fx) =
      Test.make ~name:(Printf.sprintf "path_tree/insert/n=%d" n)
        (Staged.stage (fun () ->
             (* Insert a fresh peer then remove it, so the population stays
                at n across runs. *)
             let peer = fx.next_peer in
             fx.next_peer <- fx.next_peer + 1;
             Nearby.Path_tree.insert fx.tree ~peer
               ~routers:fx.routes.(peer mod Array.length fx.routes);
             Nearby.Path_tree.remove fx.tree peer))
    in
    List.map make fixtures
  in
  let query_tests =
    let make (n, fx) =
      let counter = ref 0 in
      Test.make ~name:(Printf.sprintf "path_tree/query/n=%d" n)
        (Staged.stage (fun () ->
             let peer = !counter mod fx.population in
             incr counter;
             ignore (Nearby.Path_tree.query_member fx.tree ~peer ~k:5)))
    in
    List.map make fixtures
  in
  let substrate =
    let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 2000) ~seed:11 in
    let oracle = Traceroute.Route_oracle.create map.graph in
    let leaf_count = Array.length map.leaves in
    let counter = ref 0 in
    [
      Test.make ~name:"topology/bfs/2000-routers"
        (Staged.stage (fun () ->
             let src = map.leaves.(!counter mod leaf_count) in
             incr counter;
             ignore (Topology.Bfs.distances map.graph src)));
      (* The transport and the pings ask for route lengths on every
         message: one read of a cached sink tree. *)
      Test.make ~name:"traceroute/oracle/route_length"
        (Staged.stage (fun () ->
             let src = map.leaves.(!counter mod leaf_count) in
             incr counter;
             ignore (Traceroute.Route_oracle.route_length oracle ~src ~dst:map.core.(0))));
      Test.make ~name:"traceroute/probe/cached-tree"
        (Staged.stage (fun () ->
             let src = map.leaves.(!counter mod leaf_count) in
             incr counter;
             ignore (Traceroute.Probe.run oracle ~src ~dst:map.core.(0))));
      (let rng = Prelude.Prng.create 3 in
       Test.make ~name:"prelude/prng/int"
         (Staged.stage (fun () -> ignore (Prelude.Prng.int rng 1_000_000))));
    ]
  in
  (* The observe path every join pays per stream sample: a cycle of 1,024
     exponential latencies (mean 20 ms), and for the windowed series a clock
     advancing 1 ms per sample across 1 s windows. *)
  let observe =
    let rng = Prelude.Prng.create 5 in
    let latencies = Array.init 1024 (fun _ -> Prelude.Prng.exponential rng ~mean:20.0) in
    let trace = Simkit.Trace.create () and ts = Simkit.Timeseries.create ~window_ms:1000.0 () in
    let i = ref 0 in
    [
      Test.make ~name:"simkit/trace/observe"
        (Staged.stage (fun () ->
             incr i;
             Simkit.Trace.observe trace "lat_ms" latencies.(!i land 1023)));
      Test.make ~name:"simkit/timeseries/observe"
        (Staged.stage (fun () ->
             incr i;
             Simkit.Timeseries.observe ts "lat_ms" ~now:(float_of_int !i)
               latencies.(!i land 1023)));
    ]
  in
  (* The per-event and per-write costs every join pays: one schedule and one
     step against a steady backlog of 1,024 events whose delays tie often,
     and a labeled counter write cycling through eight {kind, dir} series. *)
  let runtime =
    let engine = Simkit.Engine.create () in
    let delays = Array.init 1024 (fun i -> float_of_int (i mod 7)) in
    Array.iter (fun delay -> Simkit.Engine.schedule engine ~delay ignore) delays;
    let metrics = Simkit.Metrics.create () in
    let labels =
      Array.init 8 (fun i ->
          [ ("kind", Printf.sprintf "kind%d" (i land 3)); ("dir", if i < 4 then "request" else "reply") ])
    in
    let i = ref 0 in
    [
      Test.make ~name:"simkit/engine/schedule+step"
        (Staged.stage (fun () ->
             incr i;
             Simkit.Engine.schedule engine ~delay:delays.(!i land 1023) ignore;
             ignore (Simkit.Engine.step engine)));
      Test.make ~name:"simkit/metrics/incr"
        (Staged.stage (fun () ->
             incr i;
             Simkit.Metrics.incr metrics "wire_msgs_total" ~labels:labels.(!i land 7)));
    ]
  in
  (* What one join's plumbing costs, callback by callback, on the shape of
     the stack benchmark: a 2,000-router map, 8 medium-degree landmarks, 3
     replica routers, peers cycling over 64 leaves whose route trees are
     built before timing starts. *)
  let join_path =
    let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 2000) ~seed:1 in
    let rng = Prelude.Prng.create 1 in
    let place count = Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count ~rng in
    let landmarks = place 8 in
    let replicas = place 3 in
    let oracle = Traceroute.Route_oracle.create map.graph in
    let peers = Array.sub map.leaves 0 64 in
    Array.iter
      (fun dst -> ignore (Traceroute.Route_oracle.route_length oracle ~src:map.core.(0) ~dst))
      (Array.concat [ landmarks; replicas; peers ]);
    let client = Nearby.Client.create oracle ~landmarks in
    let engine = Simkit.Engine.create () in
    let transport =
      Simkit.Transport.create ~rng:(Prelude.Prng.create 2) ~metrics:(Simkit.Metrics.create ())
        engine oracle
    in
    (* The cluster's detector heartbeats run on an engine of their own,
       never stepped: [target] reads only delays and suspicions. *)
    let cluster =
      Nearby.Cluster.create
        ~transport:(Simkit.Transport.create (Simkit.Engine.create ()) oracle)
        ~client_router:map.core.(0)
        ~make_server:(fun () -> Nearby.Server.create oracle ~landmarks)
        ~routers:replicas ()
    in
    let rpc = Simkit.Rpc.create ~rng:(Prelude.Prng.create 3) transport in
    let i = ref 0 in
    let next_peer () =
      incr i;
      peers.(!i land 63)
    in
    let parts = [ ("path_report", 60); ("query", 4) ] and reply = [ ("reply", 20) ] in
    let settled = ref false in
    (* A replica holding 2,000 members applies a fan-out write: the 64
       peers' measurements are taken once, and each run registers a fresh
       peer id and leaves it again, so the population stays put. *)
    let replica = Nearby.Server.create oracle ~landmarks in
    let measured = Array.map (fun r -> (r, Nearby.Client.measure client ~attach_router:r)) peers in
    let register peer =
      let attach_router, (m : Nearby.Client.measurement) = measured.(peer land 63) in
      Nearby.Server.register_replica replica ~peer ~attach_router ~landmark:m.landmark ~path:m.path
        ~probes_spent:m.probes
    in
    for peer = 0 to 1_999 do
      register peer
    done;
    let next_replica_peer = ref 2_000 in
    [
      Test.make ~name:"nearby/client/measure"
        (Staged.stage (fun () ->
             ignore (Nearby.Client.measure client ~attach_router:(next_peer ()))));
      Test.make ~name:"nearby/server/register_replica"
        (Staged.stage (fun () ->
             let peer = !next_replica_peer in
             incr next_replica_peer;
             register peer;
             Nearby.Server.leave replica ~peer));
      (* A send and the step that delivers it, so the queue stays empty. *)
      Test.make ~name:"simkit/transport/send_parts"
        (Staged.stage (fun () ->
             Simkit.Transport.send_parts ~dir:"request" transport ~src:(next_peer ())
               ~dst:replicas.(0) ~parts ignore;
             ignore (Simkit.Engine.step engine)));
      Test.make ~name:"nearby/cluster/target"
        (Staged.stage (fun () ->
             ignore (Nearby.Cluster.target cluster ~src:(next_peer ()) ~attempt:1)));
      (* One call stepped until its reply settles it; the timeouts of earlier
         calls fire (as no-ops) along the way, as they do in a run. *)
      Test.make ~name:"simkit/rpc/call+settle"
        (Staged.stage (fun () ->
             settled := false;
             Simkit.Rpc.call rpc ~src:(next_peer ())
               ~dst:(fun ~attempt:_ -> Some replicas.(0))
               ~request_parts:parts
               ~reply_parts:(fun _ -> reply)
               ~handle:(fun ~dst:_ -> Some ())
               ~on_reply:(fun () -> settled := true)
               ~on_give_up:ignore;
             while not !settled do
               ignore (Simkit.Engine.step engine)
             done));
    ]
  in
  Test.make_grouped ~name:"micro"
    (insert_tests @ query_tests @ substrate @ observe @ runtime @ join_path)

let run_micro () =
  print_endline "== Bechamel micro-benchmarks (ns/op, OLS on monotonic clock) ==";
  let tests = micro_tests () in
  let instance = Instance.monotonic_clock in
  (* No GC stabilization between samples: compacting the fixtures' heap
     eats the quota, leaving too few samples to fit (negative r^2, and
     sub-microsecond cases reading in microseconds).  GC cost is then
     part of each case's ns/op, as it is in a real run. *)
  let cfg = Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let estimate =
          match Analyze.OLS.estimates ols_result with Some [ e ] -> e | _ -> nan
        in
        let r2 = match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan in
        (name, estimate, r2) :: acc)
      results []
    |> List.sort compare
  in
  Prelude.Table.print
    ~header:[ "benchmark"; "ns/op"; "r^2" ]
    (List.map
       (fun (name, est, r2) ->
         [ name; Prelude.Table.float_cell ~decimals:1 est; Prelude.Table.float_cell ~decimals:4 r2 ])
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Experiment regeneration *)

let banner title = Printf.printf "\n================ %s ================\n%!" title

(* Most sections: a banner, then one result at the paper-scale or the
   quick configuration, printed. *)
let simple title default quick run print ~full =
  banner title;
  print (run (if full then default else quick))

(* Every gated section writes its BENCH file here: its fields, then the
   "gates" field `regress` reads, then one line naming the file. *)
let write_gated ?seed ?backends ?params ?(json = Eval.Regression.to_json) path fields gates summary =
  Simkit.Export.write_bench ~path ?seed ?backends ?params (fields @ [ ("gates", json gates) ]);
  Printf.printf "wrote %s (%s)\n%!" path summary

(* The paper's measured figure.  Only the paper configuration ([--full])
   writes BENCH_fig2.json and its gates: quick scale does not show the
   flat shape, so its numbers would not match the baseline. *)
let run_fig2 ~full =
  banner "fig2 (the paper's measured figure)";
  let config = if full then Eval.Fig2.default_config else Eval.Fig2.quick_config in
  let rows = Eval.Fig2.run config in
  Eval.Fig2.print rows;
  if full then
    write_gated "BENCH_fig2.json"
      ~params:
        [
          ("routers", string_of_int config.routers);
          ("landmark_count", string_of_int config.landmark_count);
          ("k", string_of_int config.k);
          ("seeds", String.concat " " (List.map string_of_int config.seeds));
        ]
      [ ("rows", Simkit.Json_str.arr (List.map Eval.Fig2.row_json rows)) ]
      (Eval.Fig2.gates rows)
      (Printf.sprintf "%d population sizes" (List.length rows))

(* E2, the super-peer split.  As for fig2, only the paper configuration
   ([--full]) writes BENCH_superpeers.json and its gates. *)
let run_superpeers ~full =
  banner "E2 super-peers";
  let config = Eval.Super_peer_exp.(if full then default_config else quick_config) in
  let rows = Eval.Super_peer_exp.run config in
  Eval.Super_peer_exp.print rows;
  if full then
    write_gated "BENCH_superpeers.json"
      ~params:
        [
          ("routers", string_of_int config.routers);
          ("peers", string_of_int config.peers);
          ("landmark_count", string_of_int config.landmark_count);
          ("k", string_of_int config.k);
          ("seeds", String.concat " " (List.map string_of_int config.seeds));
        ]
      [ ("rows", Simkit.Json_str.arr (List.map Eval.Super_peer_exp.row_json rows)) ]
      (Eval.Super_peer_exp.gates rows)
      (Printf.sprintf "%d seeds" (List.length rows))

(* E5, the paper's motivation.  As for fig2, only the paper configuration
   ([--full]) writes BENCH_setup.json and its gates. *)
let run_setup_delay ~full =
  banner "E5 setup delay vs quality";
  let config = if full then Eval.Setup_delay.default_config else Eval.Setup_delay.quick_config in
  let result = Eval.Setup_delay.run config in
  Eval.Setup_delay.print result;
  if full then
    write_gated "BENCH_setup.json" ~seed:config.seed
      ~params:
        [
          ("routers", string_of_int config.routers);
          ("peers", string_of_int config.peers);
          ("landmark_count", string_of_int config.landmark_count);
          ("k", string_of_int config.k);
        ]
      [ ("rows", Simkit.Json_str.arr (List.map Eval.Setup_delay.row_json result.rows)) ]
      (Eval.Setup_delay.gates result)
      (Printf.sprintf "%d methods" (List.length result.rows))

(* E4, the decreased traceroute.  As for fig2, only the paper
   configuration ([--full]) writes BENCH_truncate.json and its gates. *)
let run_truncate ~full =
  banner "E4 decreased traceroute";
  let config = if full then Eval.Truncate_exp.default_config else Eval.Truncate_exp.quick_config in
  let rows = Eval.Truncate_exp.run config in
  Eval.Truncate_exp.print rows;
  if full then
    write_gated "BENCH_truncate.json"
      ~params:
        [
          ("routers", string_of_int config.routers);
          ("peers", string_of_int config.peers);
          ("landmark_count", string_of_int config.landmark_count);
          ("k", string_of_int config.k);
          ("seeds", String.concat " " (List.map string_of_int config.seeds));
        ]
      [ ("rows", Simkit.Json_str.arr (List.map Eval.Truncate_exp.row_json rows)) ]
      (Eval.Truncate_exp.gates rows)
      (Printf.sprintf "%d strategies" (List.length rows))

(* ------------------------------------------------------------------ *)
(* Registry backend throughput *)

let time_ops f =
  let t0 = Sys.time () in
  let ops = f () in
  let dt = Sys.time () -. t0 in
  float_of_int ops /. Float.max dt 1e-9

(* Repeat [pass] (which returns its op count) until the CPU clock has run
   for [min_s]: one pass of a thousand tree queries lasts about a
   millisecond, too short a window for [Sys.time] on a shared machine. *)
let time_repeated ~min_s pass =
  let t0 = Sys.time () in
  let ops = ref 0 in
  while !ops = 0 || Sys.time () -. t0 < min_s do
    ops := !ops + pass ()
  done;
  float_of_int !ops /. Float.max (Sys.time () -. t0) 1e-9

(* The million-member scaling sweep of the path tree: built with the batch
   interface ([insert_many] in 8192-entry chunks), then queried with
   [query_member] in a loop.  One build per point -- a 1M build is seconds
   long, repetition buys nothing -- while the query loop repeats until the
   clock has something to measure. *)
let run_sweep ~sweep_max =
  banner "registry scaling sweep: path tree (batch insert, looped member queries)";
  let sizes = List.filter (fun n -> n <= sweep_max) [ 10_000; 100_000; 1_000_000 ] in
  if sizes = [] then invalid_arg "bench registry: --sweep-max below the smallest sweep point";
  let k = 5 in
  let chunk = 8192 in
  let fx = make_fixture ~routers:2000 ~population:0 ~seed:7 in
  let landmark = Nearby.Path_tree.landmark fx.tree in
  let route_of peer = fx.routes.(peer mod Array.length fx.routes) in
  let rows =
    List.map
      (fun n ->
        let query_count = min n 2_000 in
        let stride = n / query_count in
        let reg = Nearby.Registry_intf.create (module Nearby.Path_tree) ~landmark in
        let insert_ops =
          time_ops (fun () ->
              let peer = ref 0 in
              while !peer < n do
                let m = min chunk (n - !peer) in
                let base = !peer in
                Nearby.Registry_intf.insert_many reg
                  (Array.init m (fun i -> (base + i, route_of (base + i))));
                peer := base + m
              done;
              n)
        in
        let query_ops =
          time_repeated ~min_s:0.5 (fun () ->
              for i = 0 to query_count - 1 do
                ignore (Nearby.Registry_intf.query_member reg ~peer:(i * stride) ~k)
              done;
              query_count)
        in
        let intro = Nearby.Registry_intf.introspect reg in
        {
          Eval.Registry_gates.sw_n = n;
          sw_insert_ops = insert_ops;
          sw_query_ops = query_ops;
          sw_members = intro.Nearby.Registry_intf.members;
          sw_bytes = intro.Nearby.Registry_intf.approx_bytes;
        })
      sizes
  in
  Prelude.Table.print
    ~header:[ "n"; "insert ops/s"; "query ops/s"; "members"; "~MiB"; "B/member" ]
    (List.map
       (fun (r : Eval.Registry_gates.sweep_row) ->
         [
           string_of_int r.sw_n;
           Prelude.Table.float_cell ~decimals:0 r.sw_insert_ops;
           Prelude.Table.float_cell ~decimals:0 r.sw_query_ops;
           string_of_int r.sw_members;
           Prelude.Table.float_cell ~decimals:1 (float_of_int r.sw_bytes /. 1048576.0);
           string_of_int (r.sw_bytes / Int.max 1 r.sw_members);
         ])
       rows);
  rows

let sweep_row_json (r : Eval.Registry_gates.sweep_row) =
  Printf.sprintf
    "    {\"n\": %d, \"backend\": \"tree\", \"insert_ops_per_s\": %.0f, \"query_ops_per_s\": %.0f, \
     \"members\": %d, \"approx_bytes\": %d}"
    r.sw_n r.sw_insert_ops r.sw_query_ops r.sw_members r.sw_bytes

let run_registry ~full ~sweep_max =
  banner "registry backends: insert/query throughput (unified interface)";
  let population = if full then 20_000 else 10_000 in
  let query_count = if full then 2_000 else 1_000 in
  let k = 5 in
  let fx = make_fixture ~routers:2000 ~population:0 ~seed:7 in
  let landmark = Nearby.Path_tree.landmark fx.tree in
  let route_of peer = fx.routes.(peer mod Array.length fx.routes) in
  let repeats = 3 in
  let run_backend spec =
    let backend = Eval.Backends.backend spec in
    (* Best of [repeats] fresh builds: population-scale inserts are long
       enough to time with Sys.time, the max squeezes out scheduler noise. *)
    let reg = ref (Nearby.Registry_intf.create backend ~landmark) in
    let insert_ops = ref 0.0 in
    for _ = 1 to repeats do
      let fresh = Nearby.Registry_intf.create backend ~landmark in
      let ops =
        time_ops (fun () ->
            for peer = 0 to population - 1 do
              Nearby.Registry_intf.insert fresh ~peer ~routers:(route_of peer)
            done;
            population)
      in
      insert_ops := Float.max !insert_ops ops;
      reg := fresh
    done;
    let reg = !reg in
    let answers = Array.make query_count [] in
    let query_ops =
      time_repeated ~min_s:0.2 (fun () ->
          for peer = 0 to query_count - 1 do
            answers.(peer) <- Nearby.Registry_intf.query_member reg ~peer ~k
          done;
          query_count)
    in
    (spec, reg, !insert_ops, query_ops, answers)
  in
  let results = List.map run_backend Eval.Backends.all in
  let reference =
    match results with
    | (Eval.Backends.Tree, _, _, _, answers) :: _ -> answers
    | _ -> failwith "registry bench: tree backend must run first"
  in
  (* A backend's query loop once more, untimed, counting the minor words
     it allocates against the neighbors it returns. *)
  let words_per_answer spec =
    let _, reg, _, _, _ = List.find (fun (s, _, _, _, _) -> s = spec) results in
    let returned = ref 0 in
    let before = Gc.minor_words () in
    for peer = 0 to query_count - 1 do
      returned := !returned + List.length (Nearby.Registry_intf.query_member reg ~peer ~k)
    done;
    (Gc.minor_words () -. before) /. float_of_int (Int.max 1 !returned)
  in
  let query_words_per_answer = words_per_answer Eval.Backends.Tree in
  let dht_words_per_answer = words_per_answer Eval.Backends.Dht in
  let rows =
    List.map
      (fun (spec, _, insert_ops, query_ops, answers) ->
        { Eval.Registry_gates.spec; insert_ops; query_ops; identical = answers = reference })
      results
  in
  Prelude.Table.print
    ~header:[ "backend"; "insert ops/s"; "query ops/s"; "answers = tree" ]
    (List.map
       (fun (r : Eval.Registry_gates.row) ->
         [
           Eval.Backends.to_string r.spec;
           Prelude.Table.float_cell ~decimals:0 r.insert_ops;
           Prelude.Table.float_cell ~decimals:0 r.query_ops;
           string_of_bool r.identical;
         ])
       rows);
  Printf.printf "minor words per returned neighbor: tree %.1f, dht %.1f\n" query_words_per_answer
    dht_words_per_answer;
  let sweep_rows = run_sweep ~sweep_max in
  let row_json (r : Eval.Registry_gates.row) =
    Printf.sprintf
      "{\"backend\": %s, \"insert_ops_per_s\": %.0f, \"query_ops_per_s\": %.0f, \
       \"answers_identical\": %b}"
      (Simkit.Json_str.quote (Eval.Backends.to_string r.spec)) r.insert_ops r.query_ops r.identical
  in
  write_gated "BENCH_registry.json" ~seed:7
    ~backends:(List.map Eval.Backends.to_string Eval.Backends.all)
    [
      ("population", string_of_int population);
      ("queries", string_of_int query_count);
      ("k", string_of_int k);
      ("backends", "[" ^ String.concat ", " (List.map row_json rows) ^ "]");
      ( "sweep",
        "[" ^ String.concat ", " (List.map (fun r -> String.trim (sweep_row_json r)) sweep_rows) ^ "]" );
    ]
    (Eval.Registry_gates.registry ~query_words_per_answer rows sweep_rows)
    (Printf.sprintf "%d-peer workload, sweep to %d" population
       (List.fold_left (fun acc (r : Eval.Registry_gates.sweep_row) -> Int.max acc r.sw_n) 0 sweep_rows))

(* ------------------------------------------------------------------ *)
(* Observability: per-backend latency quantiles through the instrumented
   registry — the same wrapper the sim's --metrics-out path uses, so the
   BENCH_obs.json trajectory and the sim's snapshots are comparable. *)

let run_obs ~full =
  banner "observability: per-backend insert/query latency quantiles";
  let population = if full then 20_000 else 10_000 in
  let query_count = if full then 2_000 else 1_000 in
  let k = 5 in
  let seed = 7 in
  let fx = make_fixture ~routers:2000 ~population:0 ~seed in
  let landmark = Nearby.Path_tree.landmark fx.tree in
  let route_of peer = fx.routes.(peer mod Array.length fx.routes) in
  let run_backend spec =
    let metrics = Simkit.Trace.create () in
    (* A live sink so every op is one root trace: the middleware tags each
       latency sample with its trace id, which is what populates the tail
       exemplars this bench gates on.  The span machinery sits outside the
       timed window, so the ns quantiles are unaffected.  The monotonic
       clock reads nanoseconds: the middleware's default wall clock is
       microsecond-granular, which rounds a sub-microsecond insert to 0 or
       1,000 ns and makes its p99 a coin flip. *)
    let spans = Simkit.Span.buffer () in
    let backend =
      Nearby.Instrumented_registry.wrap ~clock:Monotonic_clock.get
        ~sink:(Simkit.Trace.stream_ref metrics) ~spans
        (Eval.Backends.backend spec)
    in
    let reg = Nearby.Registry_intf.create backend ~landmark in
    for peer = 0 to population - 1 do
      Nearby.Registry_intf.insert reg ~peer ~routers:(route_of peer)
    done;
    for peer = 0 to query_count - 1 do
      ignore (Nearby.Registry_intf.query_member reg ~peer ~k)
    done;
    let summary name =
      match Simkit.Trace.summary metrics name with
      | Some s -> s
      | None -> failwith ("bench obs: missing stream " ^ name)
    in
    let exemplar_count name = List.length (Simkit.Trace.exemplars metrics name) in
    {
      Eval.Registry_gates.o_spec = spec;
      insert_ns = summary Nearby.Instrumented_registry.insert_ns;
      query_ns = summary Nearby.Instrumented_registry.query_ns;
      insert_exemplars = exemplar_count Nearby.Instrumented_registry.insert_ns;
      query_exemplars = exemplar_count Nearby.Instrumented_registry.query_ns;
      introspect = Nearby.Registry_intf.introspect reg;
    }
  in
  let results = List.map run_backend Eval.Backends.all in
  let cell = Prelude.Table.float_cell ~decimals:0 in
  Prelude.Table.print
    ~header:
      [ "backend"; "insert p50 ns"; "insert p99 ns"; "query p50 ns"; "query p99 ns";
        "exemplars"; "members"; "routers"; "~KiB" ]
    (List.map
       (fun (r : Eval.Registry_gates.obs_row) ->
         [ Eval.Backends.to_string r.o_spec; cell r.insert_ns.p50; cell r.insert_ns.p99;
           cell r.query_ns.p50; cell r.query_ns.p99;
           string_of_int (r.insert_exemplars + r.query_exemplars);
           string_of_int r.introspect.members; string_of_int r.introspect.routers;
           string_of_int (r.introspect.approx_bytes / 1024) ])
       results);
  (* Sketch fidelity: the merged fleet quantiles below are only as good as
     the sketch, so gate its relative error against exact order statistics
     on a deterministic heavy-tailed sample set. *)
  let sketch_err =
    let n = 5_000 in
    let rng = Prelude.Prng.create (seed * 7919) in
    let samples =
      Array.init n (fun _ ->
          let u = Prelude.Prng.unit_float rng in
          0.5 +. (1_000.0 *. u *. u *. u))
    in
    let sk = Prelude.Sketch.create () in
    Array.iter (fun v -> Prelude.Sketch.add sk v) samples;
    List.map
      (fun q ->
        let exact = Prelude.Stats.percentile samples (100.0 *. q) in
        let est = Prelude.Sketch.quantile sk q in
        (q, Float.abs (est -. exact) /. exact))
      [ 0.5; 0.9; 0.99 ]
  in
  let sketch_max_err = List.fold_left (fun m (_, e) -> Float.max m e) 0.0 sketch_err in
  let sketch_within = sketch_max_err <= 2.0 *. Prelude.Sketch.default_alpha in
  (* Fleet-wide merged view: a replicated cluster of path-tree servers,
     scraped per replica and folded into one trace.  Simulated clock, so
     every number is deterministic in the seed. *)
  let fleet_result, fleet =
    Eval.Fleet_obs.run
      { Eval.Fleet_obs.quick_config with seed; slos = Eval.Fleet_obs.default_slos }
  in
  let alpha = Prelude.Sketch.default_alpha in
  let cluster = Eval.Fleet_obs.cluster fleet in
  let fleet_within =
    (* Each replica-labeled p99 must match that replica's own sketch (a
       single-source merge copies the buckets), and the merged p99 must
       land inside the per-replica envelope, both within the documented
       relative-error bound. *)
    let per_replica_ok = ref true in
    let p99s =
      Array.to_list
        (Array.mapi
           (fun i labeled ->
             (match
                Simkit.Trace.quantile
                  (Nearby.Server.trace (Nearby.Cluster.server_of cluster i))
                  "join_ms" 0.99
              with
             | Some source when Float.abs (labeled -. source) > 2.0 *. alpha *. source ->
                 per_replica_ok := false
             | Some _ -> ()
             | None -> per_replica_ok := false);
             labeled)
           fleet_result.Eval.Fleet_obs.replica_join_p99_ms)
    in
    let lo = List.fold_left Float.min infinity p99s in
    let hi = List.fold_left Float.max neg_infinity p99s in
    !per_replica_ok
    && fleet_result.Eval.Fleet_obs.fleet_join_p99_ms >= lo *. (1.0 -. (2.0 *. alpha))
    && fleet_result.Eval.Fleet_obs.fleet_join_p99_ms <= hi *. (1.0 +. (2.0 *. alpha))
  in
  Printf.printf
    "fleet: %d/%d joins, merged p99 %.1f ms (replicas %s), sketch max rel err %.5f\n%!"
    fleet_result.Eval.Fleet_obs.completed fleet_result.Eval.Fleet_obs.joins
    fleet_result.Eval.Fleet_obs.fleet_join_p99_ms
    (String.concat " "
       (List.map (Printf.sprintf "%.1f")
          (Array.to_list fleet_result.Eval.Fleet_obs.replica_join_p99_ms)))
    sketch_max_err;
  let quantiles_json (s : Simkit.Trace.summary) =
    let n = Simkit.Json_str.number in
    Printf.sprintf
      "{\"count\": %d, \"mean\": %s, \"p50\": %s, \"p90\": %s, \"p99\": %s, \"max\": %s}" s.count
      (n s.mean) (n s.p50) (n s.p90) (n s.p99) (Simkit.Json_str.number_opt s.max)
  in
  let row_json (r : Eval.Registry_gates.obs_row) =
    Printf.sprintf
      "    {\"backend\": %s, \"insert_ns\": %s, \"query_ns\": %s, \"insert_exemplars\": %d, \
       \"query_exemplars\": %d, \"introspect\": %s}"
      (Simkit.Json_str.quote (Eval.Backends.to_string r.o_spec)) (quantiles_json r.insert_ns)
      (quantiles_json r.query_ns) r.insert_exemplars r.query_exemplars
      (Nearby.Registry_intf.introspection_json r.introspect)
  in
  let sketch_json =
    Printf.sprintf
      "{\"alpha\": %s, \"samples\": 5000, %s, \"max_rel_err\": %s, \"within_bound\": %b}"
      (Simkit.Json_str.number Prelude.Sketch.default_alpha)
      (String.concat ", "
         (List.map
            (fun (q, e) ->
              Printf.sprintf "\"rel_err_p%d\": %s"
                (int_of_float (q *. 100.0))
                (Simkit.Json_str.number e))
            sketch_err))
      (Simkit.Json_str.number sketch_max_err)
      sketch_within
  in
  let fleet_completion =
    float_of_int fleet_result.Eval.Fleet_obs.completed
    /. float_of_int fleet_result.Eval.Fleet_obs.joins
  in
  let fleet_json =
    let r = fleet_result in
    Printf.sprintf
      "{\"replicas\": %d, \"joins\": %d, \"completed\": %d, \
       \"completion_rate\": %s, \"merged_p50_ms\": %s, \"merged_p99_ms\": %s, \
       \"replica_p99_ms\": [%s], \"within_bound\": %b, \"rpc_ok\": %d}"
      (Nearby.Cluster.replica_count cluster) r.Eval.Fleet_obs.joins
      r.Eval.Fleet_obs.completed
      (Simkit.Json_str.number fleet_completion)
      (Simkit.Json_str.number r.Eval.Fleet_obs.fleet_join_p50_ms)
      (Simkit.Json_str.number r.Eval.Fleet_obs.fleet_join_p99_ms)
      (String.concat ", "
         (List.map Simkit.Json_str.number (Array.to_list r.Eval.Fleet_obs.replica_join_p99_ms)))
      fleet_within r.Eval.Fleet_obs.rpc_ok
  in
  write_gated "BENCH_obs.json" ~seed
    ~backends:(List.map Eval.Backends.to_string Eval.Backends.all)
    ~params:
      [
        ("population", string_of_int population);
        ("queries", string_of_int query_count);
        ("k", string_of_int k);
      ]
    [
      ("backends", "[" ^ String.concat ", " (List.map (fun r -> String.trim (row_json r)) results) ^ "]");
      ("sketch", sketch_json);
      ("fleet", fleet_json);
    ]
    (Eval.Registry_gates.obs ~sketch_max_err ~sketch_within ~fleet:fleet_result ~fleet_completion
       ~fleet_within results)
    (Printf.sprintf "%d-peer workload, %d queries" population query_count)

(* ------------------------------------------------------------------ *)
(* Resilience: join completion, latency tail and recovery time as the
   replica count and fault scenario vary — the cluster's headline
   guarantees, written to BENCH_resilience.json for the CI smoke gate. *)

let run_resilience ~full =
  banner "resilience: completion / p99 join latency / recovery vs replicas";
  let base =
    if full then Eval.Resilience_exp.default_config else Eval.Resilience_exp.quick_config
  in
  let replica_counts = [ 1; 3; 5 ] in
  let scenarios = [ "none"; "crash-primary"; "loss-burst" ] in
  let results =
    List.concat_map
      (fun scenario ->
        List.filter_map
          (fun replicas ->
            (* A 1-replica cluster cannot survive its own crash; skip the
               combination rather than report a vacuous 0% completion. *)
            if scenario = "crash-primary" && replicas = 1 then None
            else
              Some
                (Eval.Resilience_exp.run { base with Eval.Resilience_exp.scenario; replicas }))
          replica_counts)
      scenarios
  in
  let cell = Prelude.Table.float_cell in
  Prelude.Table.print
    ~header:
      [ "scenario"; "replicas"; "completion"; "p99 join ms"; "recovery ms"; "consistent" ]
    (List.map
       (fun (r : Eval.Resilience_exp.result) ->
         [
           r.scenario;
           string_of_int r.replicas;
           cell ~decimals:4 r.completion_rate;
           cell ~decimals:1 r.join_p99_ms;
           (match r.recovery_ms with Some v -> cell ~decimals:1 v | None -> "-");
           string_of_bool r.consistent;
         ])
       results);
  write_gated "BENCH_resilience.json" ~seed:base.seed
    ~params:
      [
        ("peers", string_of_int base.peers);
        ("routers", string_of_int base.routers);
        ("scenarios", String.concat " " scenarios);
      ]
    [ ("runs", "[" ^ String.concat ", " (List.map Eval.Resilience_exp.result_json results) ^ "]") ]
    (List.concat_map Eval.Resilience_exp.gates results)
    (Printf.sprintf "%d runs" (List.length results))

(* ------------------------------------------------------------------ *)
(* Load: open-loop arrivals vs admission control.  The flash crowd at 2x
   the service rate under each shedding policy — the headline is that the
   SLO-driven shedder keeps the admitted-join p99 inside the budget while
   drop-tail serves every admitted request seconds late — plus a healthy
   under-saturation row, written to BENCH_load.json for the CI gate. *)

let run_load ~full =
  banner "load: flash crowd x shedding policy (admission control)";
  let base = if full then Eval.Load_exp.default_config else Eval.Load_exp.quick_config in
  let configs =
    List.map (fun policy -> { base with Eval.Load_exp.policy }) Eval.Load_exp.policies
    @ [
        (* Healthy control: 0.8x saturation through the same queue sheds
           nothing regardless of policy. *)
        {
          base with
          Eval.Load_exp.arrival =
            Simkit.Workload.Poisson { rate_per_s = 0.8 *. base.Eval.Load_exp.service_rate_per_s };
          policy = "slo";
        };
      ]
    @
    if full then
      [
        (* Scale: >100k open-loop arrivals through the batch paths. *)
        {
          base with
          Eval.Load_exp.arrival = Simkit.Workload.Poisson { rate_per_s = 4_000.0 };
          duration_ms = 30_000.0;
          service_rate_per_s = 5_000.0;
          batch = 128;
          queue_cap = 8_000;
          policy = "slo";
        };
      ]
    else []
  in
  let results =
    List.map
      (fun config ->
        let r = Eval.Load_exp.run config in
        Eval.Load_exp.print r;
        print_newline ();
        r)
      configs
  in
  write_gated "BENCH_load.json" ~seed:base.Eval.Load_exp.seed
    ~params:
      [
        ("routers", string_of_int base.Eval.Load_exp.routers);
        ("service_rate_per_s", string_of_float base.Eval.Load_exp.service_rate_per_s);
        ("queue_cap", string_of_int base.Eval.Load_exp.queue_cap);
        ("slo_budget_ms", string_of_float base.Eval.Load_exp.slo_budget_ms);
      ]
    [ ("runs", "[" ^ String.concat ", " (List.map Eval.Load_exp.result_json results) ^ "]") ]
    (List.concat_map Eval.Load_exp.gates results)
    (Printf.sprintf "%d runs" (List.length results))

(* ------------------------------------------------------------------ *)
(* Wire: bytes on the wire by message kind — bytes/join, bytes/query,
   replication amplification and anti-entropy snapshot cost, written to
   BENCH_wire.json for the CI gate. *)

let run_wire ~full =
  banner "wire: bytes per join / per query, amplification, snapshot repair";
  let config = if full then Eval.Wire_exp.default_config else Eval.Wire_exp.quick_config in
  let r = Eval.Wire_exp.run config in
  Eval.Wire_exp.print r;
  write_gated "BENCH_wire.json" ~seed:config.Eval.Wire_exp.seed
    ~params:
      [
        ("peers", string_of_int config.Eval.Wire_exp.peers);
        ("routers", string_of_int config.Eval.Wire_exp.routers);
        ("replicas", string_of_int config.Eval.Wire_exp.replicas);
        ("loss", string_of_float config.Eval.Wire_exp.loss);
      ]
    [ ("wire", Eval.Wire_exp.result_json r) ]
    (Eval.Wire_exp.gates r)
    (Printf.sprintf "%d joins x %d replicas" config.Eval.Wire_exp.peers config.Eval.Wire_exp.replicas)

(* ------------------------------------------------------------------ *)
(* Health: state-health observability — a loss burst forces replica
   divergence; measure detection latency, anti-entropy reconvergence lag,
   digest-gated transfer savings and report staleness, written to
   BENCH_health.json for the CI gate. *)

let run_health ~full =
  banner "health: divergence detection, reconvergence lag, report staleness";
  let config = if full then Eval.Health_exp.default_config else Eval.Health_exp.quick_config in
  let r = Eval.Health_exp.run config in
  Eval.Health_exp.print r;
  write_gated "BENCH_health.json" ~seed:config.Eval.Health_exp.seed
    ~params:
      [
        ("peers", string_of_int config.Eval.Health_exp.peers);
        ("routers", string_of_int config.Eval.Health_exp.routers);
        ("replicas", string_of_int config.Eval.Health_exp.replicas);
        ("loss", string_of_float config.Eval.Health_exp.loss);
        ("sync_period_ms", string_of_float config.Eval.Health_exp.sync_period_ms);
        ("check_period_ms", string_of_float config.Eval.Health_exp.check_period_ms);
      ]
    [ ("health", Eval.Health_exp.result_json r) ]
    (Eval.Health_exp.gates r)
    (Printf.sprintf "%d joins x %d replicas" config.Eval.Health_exp.peers
       config.Eval.Health_exp.replicas)

(* ------------------------------------------------------------------ *)
(* bench/stack's deterministic metrics at tiny scale: the last line of
   each `bench/stack/main.exe --workload W --scale tiny --seconds 0 --seed 1`
   run, saved as stack_W.json in the working directory, becomes one
   gates document, BENCH_stack_tiny.json, for `regress`. *)

let run_stack_gates () =
  let gates =
    List.concat_map
      (fun w ->
        let file = Printf.sprintf "stack_%s.json" w in
        match Simkit.Json.of_file file with
        | Ok summary -> Eval.Stack_gates.gates w summary
        | Error e ->
            Printf.eprintf "stack-gates: %s: %s\n" file e;
            exit 1)
      Eval.Stack_gates.workloads
  in
  write_gated "BENCH_stack_tiny.json" ~json:Eval.Regression.to_json_exact [] gates
    (Printf.sprintf "%d gates over %d workloads" (List.length gates)
       (List.length Eval.Stack_gates.workloads))

(* ------------------------------------------------------------------ *)
(* Regression gate: the gates each BENCH_*.json in the working directory
   carries vs the committed baselines under bench/baselines/; `--update`
   refreshes the baselines instead of judging. *)

let bench_files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
    |> List.sort compare

let copy_file src dst =
  let ic = open_in_bin src in
  let data =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  Simkit.Export.write_file dst data

let run_regress ~baseline_dir ~update files =
  banner "bench regression gate";
  let files =
    match files with [] -> bench_files (if update then "." else baseline_dir) | files -> files
  in
  if files = [] then begin
    Printf.eprintf "regress: no BENCH_*.json to %s\n" (if update then "copy" else "gate");
    exit 1
  end;
  let baseline_of file = Filename.concat baseline_dir (Filename.basename file) in
  if update then begin
    (if not (Sys.file_exists baseline_dir) then Sys.mkdir baseline_dir 0o755);
    List.iter
      (fun file ->
        if not (Sys.file_exists file) then begin
          Printf.eprintf "regress --update: %s not found; generate it first\n" file;
          exit 1
        end;
        copy_file file (baseline_of file);
        Printf.printf "baseline updated: %s\n" (baseline_of file))
      files
  end
  else begin
    let gates path = Result.bind (Simkit.Json.of_file path) Eval.Regression.of_document in
    (* An unreadable document fails its file and the others are still
       compared. *)
    let failed, moved =
      List.fold_left
        (fun (failed, moved) file ->
          Printf.printf "\n-- %s --\n" file;
          match (gates (baseline_of file), gates file) with
          | Ok baseline, Ok current ->
              let comparisons = Eval.Regression.compare_gates ~baseline ~current in
              Eval.Regression.print comparisons;
              ( failed + List.length (Eval.Regression.failures comparisons),
                moved + List.length (List.filter_map Eval.Regression.change comparisons) )
          | Error e, _ | _, Error e ->
              Printf.printf "FAIL: %s\n" e;
              (failed + 1, moved))
        (0, 0) files
    in
    if failed > 0 then begin
      Printf.eprintf "\nregress: %d gate(s) failed, %d moved\n" failed moved;
      exit 1
    end
    else Printf.printf "\nregress: all gates within tolerance, %d moved\n" moved
  end

(* ------------------------------------------------------------------ *)
(* Every section, in the order a bare run executes them. *)

let sweep_max = ref 1_000_000

let experiments =
  [
    ("micro", fun ~full:_ -> run_micro ());
    ("fig2", run_fig2);
    ( "complexity",
      Eval.Complexity.(
        simple "complexity table (O(log n) insert / O(1) query)" default_config quick_config run
          print) );
    ( "landmarks",
      Eval.Landmark_sweep.(
        simple "E1 landmark count x placement" default_config quick_config
          (fun config -> (run config, run_round1_ablation config))
          (fun (rows, ablation) ->
            print rows;
            print_newline ();
            print_ablation ablation)) );
    ("superpeers", run_superpeers);
    ( "churn",
      Eval.Churn_exp.(
        simple "E3 churn / failures / handover" default_config quick_config run print) );
    ("truncate", run_truncate);
    ("setup-delay", run_setup_delay);
    ( "metric",
      Eval.Metric_ablation.(
        simple "ablation: hop vs latency dtree" default_config quick_config run print) );
    ( "streaming",
      Eval.Streaming_exp.(
        simple "application: mesh live streaming" default_config quick_config run print) );
    ( "stretch",
      Eval.Stretch_analysis.(
        simple "stretch analysis (graph-oriented dtree vs d)" default_config quick_config run
          print) );
    ( "maintenance",
      Eval.Maintenance_exp.(
        simple "maintenance: frozen vs refreshed neighbor sets under churn" default_config
          quick_config run print) );
    ( "topologies",
      Eval.Topology_sensitivity.(
        simple "topology sensitivity (heavy tail vs homogeneous maps)" default_config
          quick_config run print) );
    ("registry", fun ~full -> run_registry ~full ~sweep_max:!sweep_max);
    ("obs", run_obs);
    ( "dht",
      Eval.Dht_exp.(
        simple "dht: decentralized directory (Chord)" default_config quick_config run print) );
    ( "inflation",
      Eval.Inflation_exp.(
        simple "inflation: robustness to policy routing" default_config quick_config run print) );
    ( "bulk",
      Eval.Bulk_exp.(simple "application: bulk file swarm" default_config quick_config run print) );
    ( "joining",
      Eval.Joining_exp.(
        simple "joining: newcomer time-to-playback mid-stream" default_config quick_config run
          print) );
    ("resilience", run_resilience);
    ("load", run_load);
    ("wire", run_wire);
    ("health", run_health);
  ]

let () =
  let full = ref false and update = ref false and args = ref [] in
  let baseline_dir = ref (Filename.concat "bench" "baselines") in
  let names = String.concat " " (List.map fst experiments) in
  let usage =
    Printf.sprintf
      "usage: main.exe [SECTION | stack-gates | regress [FILE...]] [OPTION...]\nsections: %s\n"
      names
  in
  let specs =
    [
      ("--full", Arg.Set full, " Run the paper-scale configurations");
      ( "--csv",
        Arg.String (fun dir -> Prelude.Table.set_csv_sink (Some dir)),
        "DIR Also write every printed table as a CSV file under DIR" );
      ( "--sweep-max",
        Arg.Int
          (fun n ->
            if n > 0 then sweep_max := n
            else raise (Arg.Bad (Printf.sprintf "bad --sweep-max %d (want a positive int)" n))),
        "N Cap the registry scaling sweep (default 1000000)" );
      ("--baseline", Arg.Set_string baseline_dir, "DIR regress: baseline directory (bench/baselines)");
      ("--update", Arg.Set update, " regress: copy the BENCH files into the baseline directory");
    ]
  in
  (try Arg.parse_argv Sys.argv (Arg.align specs) (fun a -> args := a :: !args) usage with
  | Arg.Help msg ->
      print_string msg;
      exit 0
  | Arg.Bad msg ->
      prerr_string msg;
      exit 1);
  match List.rev !args with
  | [] -> List.iter (fun (_, run) -> run ~full:!full) experiments
  | "regress" :: files -> run_regress ~baseline_dir:!baseline_dir ~update:!update files
  | [ "stack-gates" ] -> run_stack_gates ()
  | [ name ] when List.mem_assoc name experiments -> (List.assoc name experiments) ~full:!full
  | other ->
      Printf.eprintf "unknown bench %S; available: %s stack-gates regress [--full]\n"
        (String.concat " " other)
        names;
      exit 1
