(* Labeled (dimensional) metrics over a flat Trace.

   Every labeled series is one stream/counter of a backing Trace, keyed by
   its canonical flattened name `name{k="v",...}` with the label set
   sorted — `{shard=3,backend=tree}` and `{backend=tree,shard=3}` are the
   same series.  A side table maps each canonical key back to its (name,
   labels) pair for the exporters.

   Cardinality is bounded per base name: once a name has [max_series]
   distinct label sets, further label sets collapse into one reserved
   `{other="true"}` overflow series instead of growing the table without
   bound (a scrape with runaway label values must degrade, not OOM). *)

type labels = (string * string) list

type t = {
  trace : Trace.t;
  series : (string, string * labels) Hashtbl.t;  (* canonical key -> identity *)
  per_name : (string, int) Hashtbl.t;  (* base name -> distinct label sets *)
  gauges : (string, float) Hashtbl.t;  (* canonical key -> last set value *)
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

(* The canonical key for (name, labels), registering the series on first
   sight and rerouting to the overflow series once the name is at its
   cardinality cap. *)
let resolve t name labels =
  let labels = sort_labels labels in
  let key = canonical_key name labels in
  match Hashtbl.find_opt t.series key with
  | Some _ -> key
  | None ->
      let used = Option.value ~default:0 (Hashtbl.find_opt t.per_name name) in
      if used >= t.max_series && labels <> overflow_labels then begin
        t.overflow_routed <- t.overflow_routed + 1;
        let key = canonical_key name overflow_labels in
        if not (Hashtbl.mem t.series key) then begin
          Hashtbl.add t.series key (name, overflow_labels);
          Hashtbl.replace t.per_name name (used + 1)
        end;
        key
      end
      else begin
        Hashtbl.add t.series key (name, labels);
        Hashtbl.replace t.per_name name (used + 1);
        key
      end

let incr t name ~labels = Trace.incr t.trace (resolve t name labels)
let add_count t name ~labels k = Trace.add_count t.trace (resolve t name labels) k

let observe ?trace_id t name ~labels v =
  Trace.observe ?trace_id t.trace (resolve t name labels) v

let set t name ~labels v = Hashtbl.replace t.gauges (resolve t name labels) v

let counter t name ~labels = Trace.counter t.trace (canonical_key name labels)
let summary t name ~labels = Trace.summary t.trace (canonical_key name labels)

let quantile t name ~labels q =
  Trace.quantile t.trace (canonical_key name labels) q

let gauge t name ~labels = Hashtbl.find_opt t.gauges (canonical_key name labels)

let series t =
  Hashtbl.fold (fun key (name, labels) acc -> (name, labels, key) :: acc) t.series []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.per_name []
  |> List.sort compare

let series_count t name =
  Option.value ~default:0 (Hashtbl.find_opt t.per_name name)

let overflow_routed t = t.overflow_routed
let trace t = t.trace
let gauge_bindings t =
  Hashtbl.fold (fun key v acc -> (key, v) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge_trace t ~labels src =
  let labels = sort_labels labels in
  Trace.merge_into ~map_name:(fun name -> resolve t name labels) ~into:t.trace src

let merge_into ~into src =
  Trace.merge_into
    ~map_name:(fun key ->
      match Hashtbl.find_opt src.series key with
      | Some (name, labels) -> resolve into name labels
      | None -> key (* unlabeled stream written straight to the trace *))
    ~into:into.trace src.trace;
  Hashtbl.iter
    (fun key v ->
      match Hashtbl.find_opt src.series key with
      | Some (name, labels) -> Hashtbl.replace into.gauges (resolve into name labels) v
      | None -> Hashtbl.replace into.gauges key v)
    src.gauges
