(* query-250k: the paper's O(1) neighbor query against a registry whose
   working set (about 250 MiB) is far larger than any cache.  Set-up registers the
   members in batches; the timed phase is closed-loop [Server.neighbors]
   calls, one caller at a time, on uniformly drawn members.  A pass is a
   short slice of the drawn targets, the next slice each time, so that
   the window holds many passes and each pass's calibration sits close
   to it. *)

open Common

type params = {
  routers : int;
  landmarks : int;
  k : int;
  members : int;
  queries : int;  (* targets drawn *)
  pass_queries : int;  (* per pass *)
  chunk : int;
  check_samples : int;
}

let params = function
  | Full ->
      {
        routers = 2000;
        landmarks = 8;
        k = 5;
        members = 250_000;
        queries = 500_000;
        pass_queries = 50_000;
        chunk = 8192;
        check_samples = 200;
      }
  | Tiny ->
      {
        routers = 300;
        landmarks = 8;
        k = 5;
        members = 5_000;
        queries = 5_000;
        pass_queries = 1_000;
        chunk = 8192;
        check_samples = 500;
      }

type inputs = {
  p : params;
  oracle : Traceroute.Route_oracle.t;
  server : Nearby.Server.t;
  targets : int array;
  check_peers : int array;
}

(* Round 1 is deterministic per attachment router (no probe rng), so
   members sharing a leaf share one measurement, as the load experiment
   memoizes it. *)
let measure_leaves server leaves =
  let memo = Hashtbl.create (Array.length leaves) in
  Array.iter
    (fun leaf ->
      if not (Hashtbl.mem memo leaf) then
        Hashtbl.add memo leaf (Nearby.Server.measure server ~attach_router:leaf))
    leaves;
  memo

let setup (p : params) ~seed ~timed =
  let d = deployment ~routers:p.routers ~landmarks:p.landmarks in
  let server =
    Nearby.Server.create ~backend:(Timed_registry.backend ~timed) d.oracle ~landmarks:d.landmarks
  in
  let memo = measure_leaves server d.map.leaves in
  let rng = Prelude.Prng.create seed in
  let peer_routers = attach_routers d rng p.members in
  let chunks = (p.members + p.chunk - 1) / p.chunk in
  for c = 0 to chunks - 1 do
    let first = c * p.chunk in
    let entries =
      Array.init (min p.chunk (p.members - first)) (fun j ->
          let peer = first + j in
          let router = peer_routers.(peer) in
          (peer, router, Hashtbl.find memo router))
    in
    Prof.span Prof.server_register_batch (fun () ->
        ignore (Nearby.Server.register_measured_batch server entries))
  done;
  let targets = Array.init p.queries (fun _ -> Prelude.Prng.int rng p.members) in
  let check_peers = Array.init p.check_samples (fun _ -> Prelude.Prng.int rng p.members) in
  warm_oracle d.oracle d.landmarks;
  { p; oracle = d.oracle; server; targets; check_peers }

let wire_bytes server = Simkit.Trace.counter (Nearby.Server.trace server) "wire_bytes"

(* A pass function: each call queries the next [pass_queries] of the
   pre-drawn targets once, wrapping around, and times each call into
   [latency_us] (the spans time the calls when traced).  Each pass
   variant keeps its own cursor. *)
let passes inp ~latency_us =
  let server = inp.server and k = inp.p.k and n = inp.p.pass_queries in
  let next = ref 0 in
  fun () ->
    let first = !next in
    next := (first + n) mod Array.length inp.targets;
    Prof.span Prof.bench_harness (fun () ->
        if !Prof.on then
          for j = first to first + n - 1 do
            let peer = inp.targets.(j) in
            ignore
              (Prof.span Prof.server_neighbors (fun () -> Nearby.Server.neighbors server ~peer ~k))
          done
        else
          for j = first to first + n - 1 do
            let peer = inp.targets.(j) in
            let t0 = now_ns () in
            ignore (Nearby.Server.neighbors server ~peer ~k);
            Samples.add latency_us (float_of_int (now_ns () - t0) /. 1e3)
          done)

(* The registry input of a member's query, exactly as the server builds it
   from the recorded path. *)
let registry_path (info : Nearby.Server.peer_info) =
  let routers = Traceroute.Path.known_routers info.recorded_path in
  let n = Array.length routers in
  if n > 0 && routers.(n - 1) = info.landmark then routers
  else Array.append routers [| info.landmark |]

(* Sampled answers against an exhaustive scan of the same members. *)
let checks inp ~cached =
  let server = inp.server and k = inp.p.k in
  let info peer = Option.get (Nearby.Server.info server peer) in
  let by_router = Hashtbl.create 1024 in
  let routers_of (i : Nearby.Server.peer_info) =
    match Hashtbl.find_opt by_router i.attach_router with
    | Some r -> r
    | None ->
        let r = registry_path i in
        Hashtbl.add by_router i.attach_router r;
        r
  in
  let naive = Hashtbl.create 8 in
  Array.iter
    (fun peer ->
      let lmk = (info peer).landmark in
      if not (Hashtbl.mem naive lmk) then
        Hashtbl.add naive lmk (Nearby.Naive_registry.create ~landmark:lmk))
    inp.check_peers;
  for peer = 0 to inp.p.members - 1 do
    let i = info peer in
    match Hashtbl.find_opt naive i.landmark with
    | Some reg -> Nearby.Naive_registry.insert reg ~peer ~routers:(routers_of i)
    | None -> ()
  done;
  let agree = ref true and no_self = ref true in
  Array.iter
    (fun peer ->
      let i = info peer in
      let answer = Nearby.Server.neighbors server ~peer ~k in
      let expected =
        Nearby.Naive_registry.query (Hashtbl.find naive i.landmark) ~routers:(routers_of i) ~k
          ~exclude:(fun q -> q = peer) ()
      in
      if answer <> expected then agree := false;
      if List.mem_assoc peer answer then no_self := false)
    inp.check_peers;
  [
    (Printf.sprintf "%d sampled answers equal a naive scan" (Array.length inp.check_peers), !agree);
    ("no answer contains the querying peer", !no_self);
    ("every member registered", Nearby.Server.peer_count server = inp.p.members);
    ( "no route tree built in the timed phase",
      Traceroute.Route_oracle.cached_destinations inp.oracle = cached );
  ]

let run (opts : opts) =
  let p = params opts.scale in
  (* Three set-ups: each registers every member. *)
  let setup_times = if opts.traced then 1 else 3 in
  (* In the traced run the set-up's batch inserts are timed too: they are
     where this workload's registry writes happen. *)
  if opts.traced then Prof.start ~keep_spans:(opts.trace_file <> None);
  let setup_s, inp =
    setup_repeated ~times:setup_times (fun () -> setup p ~seed:opts.seed ~timed:opts.traced)
  in
  Prof.stop ();
  let cached = Traceroute.Route_oracle.cached_destinations inp.oracle in
  let bytes0 = ref 0 in
  let latency_us = Samples.create ~capacity:p.pass_queries () in
  let untraced = passes inp ~latency_us in
  (* A pass only reads the registry: collecting its 250 MiB before every
     pass would cost more than the pass. *)
  let collect = false in
  if not opts.traced then begin
    (* Latency quantiles per pass, in reference seconds, then the median
       pass: a burst of outside interference moves one pass's tail, not
       the reported one. *)
    let pass_quantiles = ref [] in
    let w =
      run_window ~seconds:opts.seconds ~collect
        ~warmed:(fun () ->
          bytes0 := wire_bytes inp.server;
          pass_quantiles := [])
        ~between:(fun ~scale ->
          pass_quantiles :=
            List.map (fun q -> q *. scale) (Samples.quantiles latency_us [ 0.5; 0.99 ])
            :: !pass_quantiles;
          Samples.clear latency_us)
        untraced
    in
    let ops = p.pass_queries * w.passes in
    let bytes_per_op = per (float_of_int (wire_bytes inp.server - !bytes0)) ops in
    let median_q i = median (List.map (fun qs -> List.nth qs i) !pass_quantiles) in
    let n = Printf.sprintf "median of %d passes of n=%d" w.passes p.pass_queries in
    {
      attempted = ops;
      failed = 0;
      checks = checks inp ~cached;
      metrics =
        [
          ("setup_s", setup_s);
          ("ops_per_s", float_of_int p.pass_queries /. w.median_pass_s);
          ("latency_p50_ms", median_q 0 /. 1e3);
          ("latency_p99_ms", median_q 1 /. 1e3);
          ("alloc_words_per_op", w.gc.alloc_words /. float_of_int ops);
          ( "state_bytes_per_member",
            state_bytes_per_member ~oracle:inp.oracle ~members:p.members inp.server );
          ("client_bytes_per_op", bytes_per_op);
          ("wire_bytes_per_op", bytes_per_op);
        ];
      notes =
        [
          ("setup_s", Printf.sprintf "median of %d set-ups of %d members" setup_times p.members);
          ( "ops_per_s",
            Printf.sprintf "median of %d passes of %d queries" w.passes p.pass_queries );
          ("latency_p50_ms", n);
          ("latency_p99_ms", n);
        ];
    }
  end
  else begin
    let traced_pass = passes inp ~latency_us in
    let traced () =
      Prof.start ~keep_spans:(opts.trace_file <> None);
      traced_pass ();
      Prof.stop ()
    in
    let before = ref [] in
    let windows =
      run_windows ~seconds:opts.seconds ~collect
        ~warmed:(fun () -> before := Prof.snapshot ())
        ~between:(fun _ ~scale:_ -> Samples.clear latency_us)
        [| untraced; traced |]
    in
    {
      attempted = p.pass_queries * windows.(0).passes;
      failed = 0;
      checks = checks inp ~cached;
      notes = [];
      metrics =
        Layers.common ~before:!before ~ops_per_pass:p.pass_queries ~untraced:windows.(0)
          ~traced:windows.(1) ~obs:None ~server:inp.server ~neighbor_us:None;
    }
  end
