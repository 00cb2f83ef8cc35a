(* Plumbing shared by the workloads: the run options, set-up repetition,
   the pass loop that fills the measurement window, allocation counters
   and the result record every workload fills in. *)

type scale = Full | Tiny

type opts = {
  seed : int;
  seconds : float;
  traced : bool;
  scale : scale;
  trace_file : string option;
}

let now_ns = Prof.now_ns
let ns_to_s ns = float_of_int ns /. 1e9
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a n = ratio a (float_of_int n)

(* Words the program allocated: minor + major - promoted (a promoted word
   was already counted when it was allocated in the minor heap). *)
type gc = { alloc_words : float; minor_gcs : int; major_gcs : int; promoted_words : float }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    alloc_words = s.minor_words +. s.major_words -. s.promoted_words;
    minor_gcs = s.minor_collections;
    major_gcs = s.major_collections;
    promoted_words = s.promoted_words;
  }

let gc_diff a b =
  {
    alloc_words = b.alloc_words -. a.alloc_words;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
    promoted_words = b.promoted_words -. a.promoted_words;
  }

(* Memory the system's state holds per member: the words reachable from
   [root], less the shared router map and its route trees (which every
   workload and every version of the stack carry alike), over [members].
   Exact and deterministic in the seed, unlike the heap's high-water mark,
   which moves with collector timing. *)
let state_bytes_per_member ~oracle ~members root =
  let words = Obj.reachable_words (Obj.repr root) - Obj.reachable_words (Obj.repr oracle) in
  float_of_int (words * 8) /. float_of_int members

let median xs = Prelude.Stats.median (Array.of_list xs)

(* Build the workload's inputs [times] times from scratch and keep the
   last; set-up time is the median, in reference seconds ({!Calib}).
   Earlier builds are dropped (and collected outside the timing) before
   the next one starts, so only one copy is ever live. *)
let setup_repeated ~times build =
  let kept = ref None in
  let durations =
    List.init times (fun _ ->
        kept := None;
        Gc.full_major ();
        let x, dt = Calib.timed build in
        kept := Some x;
        dt)
  in
  (median durations, Option.get !kept)

(* The deployment every workload runs on: a 2,000-router Magoni map with
   medium-degree landmarks, fixed whatever the seed.  The seed varies the
   load — where peers attach, when they arrive, how long they stay, whom
   they query, which messages are lost — not the topology, whose
   variation would otherwise dominate the run-to-run spread. *)
type deployment = {
  map : Topology.Gen_magoni.t;
  oracle : Traceroute.Route_oracle.t;
  landmarks : Topology.Graph.node array;
  placement : Prelude.Prng.t;  (* for further fixed placements (replicas) *)
}

let map_seed = 1

let deployment ~routers ~landmarks =
  let map =
    Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params routers) ~seed:map_seed
  in
  let placement = Prelude.Prng.create map_seed in
  let landmarks =
    Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:landmarks ~rng:placement
  in
  { map; oracle = Traceroute.Route_oracle.create map.graph; landmarks; placement }

(* Peers attach to degree-1 routers, uniformly and with replacement. *)
let attach_routers (d : deployment) rng n =
  let leaves = d.map.leaves in
  Array.init n (fun _ -> leaves.(Prelude.Prng.int rng (Array.length leaves)))

(* Warm the route oracle's lazily built per-destination sink trees, so
   the timed phase never pays for one. *)
let warm_oracle oracle dsts =
  Array.iter
    (fun d ->
      let src = if d = 0 then 1 else 0 in
      ignore (Traceroute.Route_oracle.route_length oracle ~src ~dst:d))
    dsts

(* The measurement window: run identical passes over the same inputs
   until [seconds] of wall time are spent, starting a round of passes
   only while the last round's duration still fits, and at least
   [min_passes] rounds.  With several pass variants (the traced run
   compares tracing on and off, registry attached and detached, the
   layer ladder), a round runs each variant once, so drift in the
   machine's speed hits every variant alike.  Each pass is timed on its
   own, in reference seconds ({!Calib}): rates use the median pass, which
   a burst of interference from outside the process does not move.  Each
   pass starts from a collected heap, unless [collect] is false (passes
   that only read a large heap, where a collection would cost more than
   the pass): then only the minor heap is emptied, which is enough for
   the allocation counters to repeat.  An untimed warm-up round first
   grows the heap to its working size, so that cost is charged to no
   variant; [warmed] runs after it.  [between i ~scale] runs after a
   pass of variant [i], outside its timing and allocation counters;
   [scale] converts that pass's durations to reference seconds. *)
type window = {
  passes : int;
  wall_s : float;  (* sum of the pass times on the monotonic clock *)
  median_pass_s : float;  (* reference seconds *)
  gc : gc;  (* summed over the passes *)
}

let min_passes = 3

let run_windows ?(between = fun _ ~scale:_ -> ()) ?(warmed = fun () -> ()) ?(collect = true)
    ~seconds passes =
  let add a b =
    {
      alloc_words = a.alloc_words +. b.alloc_words;
      minor_gcs = a.minor_gcs + b.minor_gcs;
      major_gcs = a.major_gcs + b.major_gcs;
      promoted_words = a.promoted_words +. b.promoted_words;
    }
  in
  let zero = { alloc_words = 0.0; minor_gcs = 0; major_gcs = 0; promoted_words = 0.0 } in
  let walls = Array.map (fun _ -> []) passes and gcs = Array.map (fun _ -> zero) passes in
  let times = Array.map (fun _ -> []) passes in
  Array.iteri
    (fun i pass ->
      pass ();
      between i ~scale:1.0)
    passes;
  warmed ();
  let t0 = now_ns () in
  let rec round n =
    let r0 = now_ns () in
    Array.iteri
      (fun i pass ->
        if collect then Gc.full_major () else Gc.minor ();
        let before = Calib.measure () in
        let g0 = gc_now () in
        let c0 = Calib.cpu_s () and s = now_ns () in
        pass ();
        let e = now_ns () and c1 = Calib.cpu_s () in
        gcs.(i) <- add gcs.(i) (gc_diff g0 (gc_now ()));
        let scale = Calib.scale ~before ~after:(Calib.measure ()) in
        walls.(i) <- ns_to_s (e - s) :: walls.(i);
        times.(i) <- ((c1 -. c0) *. scale) :: times.(i);
        between i ~scale)
      passes;
    let now = now_ns () in
    if n + 1 < min_passes || ns_to_s (now - t0 + (now - r0)) <= seconds then round (n + 1)
  in
  round 0;
  Array.mapi
    (fun i ws ->
      {
        passes = List.length ws;
        wall_s = List.fold_left ( +. ) 0.0 ws;
        median_pass_s = median times.(i);
        gc = gcs.(i);
      })
    walls

let run_window ?between ?warmed ?collect ~seconds pass =
  (run_windows
     ?between:(Option.map (fun f _ ~scale -> f ~scale) between)
     ?warmed ?collect ~seconds [| pass |]).(0)

(* A pass whose last result is kept: the previous one is dropped before
   the next starts, so only one stack is ever live. *)
let keeping f =
  let last = ref None in
  ((fun () ->
     last := None;
     last := Some (f ())),
   fun () -> Option.get !last)

(* Step the engine until [settled] reaches [n], the horizon sentinel
   fires or the queue runs dry.  Traced and untraced runs execute exactly
   the same events; traced runs wrap each one in an [engine.step] span. *)
let drive engine ~horizon ~settled ~n =
  let stop = ref false in
  Simkit.Engine.schedule_at engine ~time:horizon (fun () -> stop := true);
  let traced = !Prof.on in
  while (not !stop) && !settled < n do
    let stepped =
      if traced then Prof.span Prof.engine_step (fun () -> Simkit.Engine.step engine)
      else Simkit.Engine.step engine
    in
    if not stepped then stop := true
  done

(* What every workload reports.  [metrics] maps names to values; the
   units live in {!Report}.  [notes] annotates printed lines (sample
   counts). *)
type result = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  metrics : (string * float) list;
  notes : (string * string) list;
}
