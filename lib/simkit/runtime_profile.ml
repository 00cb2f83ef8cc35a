(* Runtime (GC) profiling for measured phases.

   [phase t name f] brackets [f] with Gc.quick_stat, Gc.minor_words and
   wall-clock reads and accumulates the deltas under [name].  Minor words
   come from Gc.minor_words: quick_stat's count advances only at a minor
   collection, so a bracket that allocates less than a minor heap would
   read 0.  quick_stat reads no heap census (unlike Gc.stat), so the
   bracket itself is cheap — but not free,
   and a profiler that cannot see its own cost invites lying benchmarks,
   so the time spent inside the brackets is accumulated separately as
   [overhead_ns]. *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;  (* live top-heap words at the end of the last run *)
}

type phase = {
  name : string;
  runs : int;
  wall_ns : float;
  gc : gc_delta;
}

type t = {
  clock : unit -> float;  (* ns *)
  phases : (string, phase) Hashtbl.t;
  mutable order : string list;  (* first-start order, reversed *)
  mutable overhead_ns : float;
}

let default_clock () = Unix.gettimeofday () *. 1e9

let create ?(clock = default_clock) () =
  { clock; phases = Hashtbl.create 8; order = []; overhead_ns = 0.0 }

let zero_gc =
  {
    minor_words = 0.0;
    major_words = 0.0;
    promoted_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
    heap_words = 0;
  }

let record t name ~wall_ns ~minor_words ~(g0 : Gc.stat) ~(g1 : Gc.stat) =
  let prev =
    match Hashtbl.find_opt t.phases name with
    | Some p -> p
    | None ->
        t.order <- name :: t.order;
        { name; runs = 0; wall_ns = 0.0; gc = zero_gc }
  in
  let gc =
    {
      minor_words = prev.gc.minor_words +. minor_words;
      major_words = prev.gc.major_words +. (g1.major_words -. g0.major_words);
      promoted_words = prev.gc.promoted_words +. (g1.promoted_words -. g0.promoted_words);
      minor_collections =
        prev.gc.minor_collections + (g1.minor_collections - g0.minor_collections);
      major_collections =
        prev.gc.major_collections + (g1.major_collections - g0.major_collections);
      compactions = prev.gc.compactions + (g1.compactions - g0.compactions);
      heap_words = g1.top_heap_words;
    }
  in
  Hashtbl.replace t.phases name
    { name; runs = prev.runs + 1; wall_ns = prev.wall_ns +. wall_ns; gc }

let phase t name f =
  let t0 = t.clock () in
  let g0 = Gc.quick_stat () in
  let t1 = t.clock () in
  let w0 = Gc.minor_words () in
  let finally () =
    let w1 = Gc.minor_words () in
    let t2 = t.clock () in
    let g1 = Gc.quick_stat () in
    let t3 = t.clock () in
    record t name ~wall_ns:(Float.max 0.0 (t2 -. t1)) ~minor_words:(w1 -. w0) ~g0 ~g1;
    t.overhead_ns <- t.overhead_ns +. Float.max 0.0 (t1 -. t0) +. Float.max 0.0 (t3 -. t2)
  in
  Fun.protect ~finally f

let overhead_ns t = t.overhead_ns

let phases t =
  List.rev_map (fun name -> Hashtbl.find t.phases name) t.order

let find t name = Hashtbl.find_opt t.phases name

(* --- Serialization --------------------------------------------------- *)

let gc_json g =
  Json_str.obj
    [
      ("minor_words", Json_str.number g.minor_words);
      ("major_words", Json_str.number g.major_words);
      ("promoted_words", Json_str.number g.promoted_words);
      ("minor_collections", string_of_int g.minor_collections);
      ("major_collections", string_of_int g.major_collections);
      ("compactions", string_of_int g.compactions);
      ("heap_words", string_of_int g.heap_words);
    ]

let phase_json p =
  Json_str.obj
    [
      ("runs", string_of_int p.runs);
      ("wall_ns", Json_str.number p.wall_ns);
      ("gc", gc_json p.gc);
    ]

let to_json t =
  Json_str.obj
    [
      ("phases", Json_str.obj (List.map (fun p -> (p.name, phase_json p)) (phases t)));
      ("overhead_ns", Json_str.number t.overhead_ns);
    ]
