(* Every observe stream is a Welford accumulator (count, mean, stddev, CI)
   plus one mergeable sketch that answers every quantile read, live or
   merged, so tails are readable from a long run without retaining
   samples.  Exemplars keep one sample per sketch bucket, the last trace
   to land there; a stream populates a narrow band of buckets, so their
   storage stays bounded however many samples flow through. *)
type exemplar = { bucket : int; trace_id : int; value : float }

type stream = {
  st : Prelude.Stats.t;
  sketch : Prelude.Sketch.t;
  exemplars : (int, exemplar) Hashtbl.t;  (* bucket -> latest tagged sample *)
}

type summary = {
  count : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float option;
  max : float option;
  p50 : float;
  p90 : float;
  p99 : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  streams : (string, stream) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; streams = Hashtbl.create 16 }

(* [Hashtbl.find] rather than [find_opt]: no option per write. *)
let counter_ref t name =
  match Hashtbl.find t.counters name with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = incr (counter_ref t name)

let add_count t name k =
  let r = counter_ref t name in
  r := !r + k

let counter t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* Adapter for subsystems that keep plain integer counters (Transport):
   mirror an assoc snapshot into a Trace so the exporters can see it. *)
let of_counters bindings =
  let t = create () in
  List.iter (fun (name, v) -> add_count t name v) bindings;
  t

(* [Hashtbl.find] rather than [find_opt]: this runs on every observe, and
   the option would be an allocation per sample. *)
let stream_ref t name =
  match Hashtbl.find t.streams name with
  | s -> s
  | exception Not_found ->
      let s =
        {
          st = Prelude.Stats.create ();
          sketch = Prelude.Sketch.create ();
          exemplars = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.streams name s;
      s

let observe_ref ?trace_id s v =
  Prelude.Stats.add s.st v;
  Prelude.Sketch.add s.sketch v;
  (* Trace id 0 is the noop span sink's null context: not a real trace. *)
  match trace_id with
  | Some id when id <> 0 ->
      let bucket = Prelude.Sketch.bucket_index s.sketch v in
      Hashtbl.replace s.exemplars bucket { bucket; trace_id = id; value = v }
  | _ -> ()

let observe ?trace_id t name v = observe_ref ?trace_id (stream_ref t name) v

(* Cells resolved at their first write: a hot path holds the cell, not the
   name, and a name it never writes stays out of [counters]/[summaries].
   A cell holds a shared placeholder until then, and drops its resolver
   once it has run, so a written cell is the record and its target alone.
   (A forced [Lazy.t] stays a forwarding block until a minor collection
   short-circuits it, so its size would depend on collector timing.) *)
type 'a cell = { mutable target : 'a; mutable resolve : unit -> 'a }
type counter_cell = int ref cell
type stream_cell = stream cell

(* Never written: a cell is resolved before its first write. *)
let unresolved_counter = ref 0

let unresolved_stream =
  { st = Prelude.Stats.create (); sketch = Prelude.Sketch.create (); exemplars = Hashtbl.create 1 }

let counter_resolved () = unresolved_counter
let stream_resolved () = unresolved_stream
let counter_cell_of resolve = { target = unresolved_counter; resolve }
let stream_cell_of resolve = { target = unresolved_stream; resolve }
let counter_cell t name = counter_cell_of (fun () -> counter_ref t name)
let stream_cell t name = stream_cell_of (fun () -> stream_ref t name)

let counter_of (c : counter_cell) =
  if c.target == unresolved_counter then begin
    c.target <- c.resolve ();
    c.resolve <- counter_resolved
  end;
  c.target

let stream_of (c : stream_cell) =
  if c.target == unresolved_stream then begin
    c.target <- c.resolve ();
    c.resolve <- stream_resolved
  end;
  c.target

let cell_incr c = Stdlib.incr (counter_of c)

let cell_add c k =
  let r = counter_of c in
  r := !r + k

let cell_observe c v = observe_ref (stream_of c) v

let exemplars t name =
  match Hashtbl.find_opt t.streams name with
  | None -> []
  | Some s ->
      Hashtbl.fold (fun _ e acc -> e :: acc) s.exemplars []
      |> List.sort (fun a b -> compare a.bucket b.bucket)

(* The sample from the highest populated bucket: "the trace to open" when a
   stream's tail looks wrong. *)
let top_exemplar t name =
  match List.rev (exemplars t name) with e :: _ -> Some e | [] -> None

let stat t name = Option.map (fun s -> s.st) (Hashtbl.find_opt t.streams name)

let buckets t name =
  match Hashtbl.find_opt t.streams name with
  | Some s -> Prelude.Sketch.buckets s.sketch
  | None -> []

let summary_of_stream s =
  {
    count = Prelude.Stats.count s.st;
    mean = Prelude.Stats.mean s.st;
    stddev = Prelude.Stats.stddev s.st;
    ci95 = Prelude.Stats.ci95_halfwidth s.st;
    min = Prelude.Stats.min_opt s.st;
    max = Prelude.Stats.max_opt s.st;
    p50 = Prelude.Sketch.quantile s.sketch 0.5;
    p90 = Prelude.Sketch.quantile s.sketch 0.9;
    p99 = Prelude.Sketch.quantile s.sketch 0.99;
  }

let summary t name = Option.map summary_of_stream (Hashtbl.find_opt t.streams name)

let quantile t name q =
  Option.map (fun s -> Prelude.Sketch.quantile s.sketch q) (Hashtbl.find_opt t.streams name)

let sorted_bindings table value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t = sorted_bindings t.counters (fun r -> !r)
let summaries t = sorted_bindings t.streams summary_of_stream

(* Fold [src] into [into].  Counters add; Welford accumulators and
   sketches merge losslessly; exemplars take [src]'s latest per bucket (a
   merge is a scrape — the newest cross-link wins). *)
let merge_into ?(map_name = Fun.id) ~into src =
  Hashtbl.iter
    (fun name r -> if !r <> 0 then add_count into (map_name name) !r)
    src.counters;
  Hashtbl.iter
    (fun name s ->
      let dst = stream_ref into (map_name name) in
      Prelude.Stats.merge_into ~into:dst.st s.st;
      Prelude.Sketch.merge_into ~into:dst.sketch s.sketch;
      Hashtbl.iter (fun bucket e -> Hashtbl.replace dst.exemplars bucket e) s.exemplars)
    src.streams

(* Zero in place: callers may hold counter refs (counter_ref), streams
   (stream_ref) or stats handles (stat) across a reset; dropping the cells
   via Hashtbl.reset would leave those handles silently counting into
   orphaned storage. *)
let reset t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.iter
    (fun _ s ->
      Prelude.Stats.clear s.st;
      Prelude.Sketch.clear s.sketch;
      Hashtbl.reset s.exemplars)
    t.streams
