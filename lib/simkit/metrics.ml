(* Labeled (dimensional) metrics over a flat Trace.

   Every labeled series is one stream/counter of a backing Trace, keyed by
   its canonical flattened name `name{k="v",...}` with the label set
   sorted — `{replica=3,backend=tree}` and `{backend=tree,replica=3}` are
   the same series.  A side table maps each canonical key back to its (name,
   labels) pair for the exporters.

   Cardinality is bounded per base name: once a name has [max_series]
   distinct label sets, further label sets collapse into one reserved
   `{other="true"}` overflow series instead of growing the table without
   bound (a scrape with runaway label values must degrade, not OOM).

   Building a canonical key sorts, escapes and concatenates, so writes go
   through a memo from (name, labels as written) to the resolved series
   and its trace cells: a repeated write hashes the name and the label
   list and bumps the cell, allocating nothing. *)

type labels = (string * string) list

(* A registered series: its identity and, once written, the trace cells
   behind it.  Cells live in the backing trace and survive [Trace.reset]
   (zeroed in place), so a series resolved once stays valid. *)
type series = {
  name : string;
  labels : labels;  (* sorted *)
  key : string;
  mutable counter : int ref option;
  mutable stream : Trace.stream option;
}

(* Label sets exactly as a caller wrote them, order included. *)
module Label_tbl = Hashtbl.Make (struct
  type t = labels

  let equal = List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
  let hash = Hashtbl.hash
end)

module Name_tbl = Hashtbl.Make (String)

(* All-float, so the value is stored flat and a set allocates nothing. *)
type gauge = { mutable value : float }

type t = {
  trace : Trace.t;
  series : (string, series) Hashtbl.t;  (* canonical key -> series *)
  per_name : (string, int) Hashtbl.t;  (* base name -> distinct label sets *)
  gauges : (string, gauge) Hashtbl.t;  (* canonical key -> last set value *)
  (* (name, labels as written) -> its own series: a repeated write builds
     no key.  Only label sets under the cap are memoized, so every write
     past it still resolves, and counts, as an overflow. *)
  memo : series Label_tbl.t Name_tbl.t;
  max_series : int;
  mutable overflow_routed : int;
}

let overflow_labels = [ ("other", "true") ]

let create ?(max_series_per_name = 64) () =
  if max_series_per_name < 1 then
    invalid_arg "Metrics.create: max_series_per_name < 1";
  {
    trace = Trace.create ();
    series = Hashtbl.create 64;
    per_name = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    memo = Name_tbl.create 16;
    max_series = max_series_per_name;
    overflow_routed = 0;
  }

let escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let sort_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then invalid_arg ("Metrics: duplicate label key " ^ a);
        check rest
    | _ -> ()
  in
  check sorted;
  sorted

let canonical_key name labels =
  match sort_labels labels with
  | [] -> name
  | sorted ->
      name ^ "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> k ^ "=\"" ^ escape v ^ "\"") sorted)
      ^ "}"

let register t name labels key ~used =
  let s = { name; labels; key; counter = None; stream = None } in
  Hashtbl.add t.series key s;
  Hashtbl.replace t.per_name name (used + 1);
  s

(* The series for (name, labels), registering it on first sight and
   rerouting to the overflow series once the name is at its cardinality
   cap. *)
let resolve t name labels =
  let labels = sort_labels labels in
  let key = canonical_key name labels in
  match Hashtbl.find_opt t.series key with
  | Some s -> s
  | None ->
      let used = Option.value ~default:0 (Hashtbl.find_opt t.per_name name) in
      if used >= t.max_series && labels <> overflow_labels then begin
        t.overflow_routed <- t.overflow_routed + 1;
        let key = canonical_key name overflow_labels in
        match Hashtbl.find_opt t.series key with
        | Some s -> s
        | None -> register t name overflow_labels key ~used
      end
      else register t name labels key ~used

(* The write path: the memo first, [resolve] (and memoizing what it did
   not reroute) on a miss. *)
let series_of t name labels =
  match Label_tbl.find (Name_tbl.find t.memo name) labels with
  | s -> s
  | exception Not_found ->
      let routed = t.overflow_routed in
      let s = resolve t name labels in
      if t.overflow_routed = routed then begin
        let by_labels =
          match Name_tbl.find_opt t.memo name with
          | Some tbl -> tbl
          | None ->
              let tbl = Label_tbl.create 8 in
              Name_tbl.add t.memo name tbl;
              tbl
        in
        Label_tbl.add by_labels labels s
      end;
      s

let counter_cell t s =
  match s.counter with
  | Some r -> r
  | None ->
      let r = Trace.counter_ref t.trace s.key in
      s.counter <- Some r;
      r

let stream_cell t s =
  match s.stream with
  | Some st -> st
  | None ->
      let st = Trace.stream_ref t.trace s.key in
      s.stream <- Some st;
      st

let counter_ref t name ~labels = counter_cell t (series_of t name labels)
let incr t name ~labels = incr (counter_ref t name ~labels)

let add_count t name ~labels k =
  let r = counter_ref t name ~labels in
  r := !r + k

let stream_ref t name ~labels = stream_cell t (series_of t name labels)
let observe ?trace_id t name ~labels v = Trace.observe_ref ?trace_id (stream_ref t name ~labels) v

let gauge_cell t key =
  match Hashtbl.find_opt t.gauges key with
  | Some g -> g
  | None -> let g = { value = nan } in Hashtbl.add t.gauges key g; g

let gauge_ref t name ~labels = gauge_cell t (series_of t name labels).key
let set t name ~labels v = (gauge_ref t name ~labels).value <- v

let counter t name ~labels = Trace.counter t.trace (canonical_key name labels)
let summary t name ~labels = Trace.summary t.trace (canonical_key name labels)

let quantile t name ~labels q =
  Trace.quantile t.trace (canonical_key name labels) q

let gauge t name ~labels =
  Option.map (fun g -> g.value) (Hashtbl.find_opt t.gauges (canonical_key name labels))

let series t =
  Hashtbl.fold (fun key s acc -> (s.name, s.labels, key) :: acc) t.series []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)

let series_count t name =
  Option.value ~default:0 (Hashtbl.find_opt t.per_name name)

(* The series itself, never rerouted to the overflow one. *)
let own_series t name labels =
  if (not (Hashtbl.mem t.series (canonical_key name labels))) && series_count t name >= t.max_series
  then invalid_arg ("Metrics: " ^ name ^ " is at its cardinality cap");
  resolve t name labels

let bind_counter t name ~labels r =
  let s = own_series t name labels in
  Trace.bind_counter t.trace s.key r;
  s.counter <- Some r

let bind_stream t name ~labels st =
  let s = own_series t name labels in
  Trace.bind_stream t.trace s.key st;
  s.stream <- Some st

let overflow_routed t = t.overflow_routed
let trace t = t.trace
let gauge_bindings t =
  Hashtbl.fold (fun key g acc -> (key, g.value) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge_trace t ~labels src =
  let labels = sort_labels labels in
  Trace.merge_into ~map_name:(fun name -> (resolve t name labels).key) ~into:t.trace src

(* [into]'s key for one of [src]'s keys. *)
let rekey ~into src key =
  match Hashtbl.find_opt src.series key with
  | Some s -> (resolve into s.name s.labels).key
  | None -> key (* unlabeled stream written straight to the trace *)

let merge_into ~into src =
  Trace.merge_into ~map_name:(rekey ~into src) ~into:into.trace src.trace;
  Hashtbl.iter (fun key g -> (gauge_cell into (rekey ~into src key)).value <- g.value) src.gauges
