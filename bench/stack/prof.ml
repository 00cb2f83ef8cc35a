(* Wall-clock span accounting for the traced run.

   The benchmark wraps each call it makes into a layer's public functions
   in [span]; spans nest on one stack, so a span's self time is its
   duration minus the time its child spans cover, measured on the
   monotonic clock.  Aggregates (calls, inclusive and self nanoseconds,
   optional per-call samples) are kept per layer; no per-span record is
   stored unless a Chrome trace file was asked for, in which case every
   span is also emitted into a {!Simkit.Span} buffer.  With tracing off
   [span] is a direct call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = {
  name : string;
  mutable calls : int;
  mutable entries : int;  (* batch calls count their entries here *)
  mutable incl_ns : int;
  mutable self_ns : int;
  samples : Samples.t option;  (* per-call duration, microseconds *)
}

let all = ref []

let layer ?(samples = false) name =
  let l =
    {
      name;
      calls = 0;
      entries = 0;
      incl_ns = 0;
      self_ns = 0;
      samples = (if samples then Some (Samples.create ()) else None);
    }
  in
  all := l :: !all;
  l

(* The layers the benchmark can see from its own files. *)
let engine_step = layer "engine.step"
let protocol_join = layer "protocol.join"
let cluster_sync = layer "cluster.sync_round"
let admission_submit = layer "admission.submit"
let server_neighbors = layer ~samples:true "server.neighbors"
let server_register_batch = layer "server.register_measured_batch"
let server_leave = layer "server.leave"
let server_restore = layer "server.restore"
let registry_insert = layer "registry.insert"
let registry_insert_many = layer "registry.insert_many"
let registry_remove = layer "registry.remove"
let registry_query = layer ~samples:true "registry.query"
let bench_harness = layer "bench.harness"

type frame = {
  mutable flayer : layer;
  mutable start : int;
  mutable child : int;
  mutable ctx : Simkit.Span.context;
}

let max_depth = 64

let stack =
  Array.init max_depth (fun _ ->
      { flayer = bench_harness; start = 0; child = 0; ctx = Simkit.Span.null_context })

let depth = ref 0
let on = ref false
let sink = ref Simkit.Span.noop
let origin = ref 0

let enter l =
  let f = stack.(!depth) in
  f.flayer <- l;
  f.child <- 0;
  if Simkit.Span.enabled !sink then
    f.ctx <-
      (if !depth = 0 then Simkit.Span.context !sink ()
       else Simkit.Span.context !sink ~parent:stack.(!depth - 1).ctx ());
  incr depth;
  f.start <- now_ns ()

let leave () =
  let t = now_ns () in
  decr depth;
  let f = stack.(!depth) in
  let l = f.flayer in
  let dur = t - f.start in
  l.calls <- l.calls + 1;
  l.incl_ns <- l.incl_ns + dur;
  l.self_ns <- l.self_ns + (dur - f.child);
  if !depth > 0 then begin
    let parent = stack.(!depth - 1) in
    parent.child <- parent.child + dur
  end;
  (match l.samples with Some s -> Samples.add s (float_of_int dur /. 1e3) | None -> ());
  if Simkit.Span.enabled !sink then
    Simkit.Span.emit !sink ~name:l.name
      ~ts:(float_of_int (f.start - !origin) /. 1e6)
      ~dur:(float_of_int dur /. 1e6)
      ~ctx:f.ctx []

let span l f =
  if not !on then f ()
  else begin
    enter l;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

let add_entries l n = if !on then l.entries <- l.entries + n

(* Turn accounting on; [keep_spans] additionally keeps every span for a
   Chrome JSONL export.  Restarting keeps the spans already recorded. *)
let start ~keep_spans =
  if keep_spans && not (Simkit.Span.enabled !sink) then begin
    origin := now_ns ();
    sink := Simkit.Span.buffer ()
  end;
  on := true

let stop () = on := false

type totals = { t_calls : int; t_incl : int; t_self : int }

let snapshot () =
  List.map (fun l -> (l, { t_calls = l.calls; t_incl = l.incl_ns; t_self = l.self_ns })) !all

(* Per-layer growth since [before]. *)
let since before l =
  let b = List.assq l before in
  {
    t_calls = l.calls - b.t_calls;
    t_incl = l.incl_ns - b.t_incl;
    t_self = l.self_ns - b.t_self;
  }

let write_jsonl file = Simkit.Span.write_jsonl [ !sink ] file
