(* Offline analysis of span JSONL: reconstruct the causal tree of every
   trace from the trace_id/span_id/parent_span_id fields {!Span} writes,
   walk each tree's critical path, and aggregate where the time of the
   slowest traces goes by span kind.  Reads the same files Perfetto does —
   the causal fields are the top-level extras viewers ignore. *)

type span = {
  name : string;
  ts : float;  (* ms (the file stores µs) *)
  dur : float;  (* ms *)
  pid : int;
  tid : int;
  trace_id : int;
  span_id : int;
  parent_span_id : int option;
}

let span_end s = s.ts +. s.dur

(* --- Loading ---------------------------------------------------------- *)

let span_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string in
  let num k = Option.bind (Json.member k j) Json.to_float in
  let int k = Option.map int_of_float (num k) in
  match (str "name", num "ts", int "trace_id", int "span_id") with
  | Some name, Some ts, Some trace_id, Some span_id ->
      Some
        {
          name;
          ts = ts /. 1000.0;
          dur = (match num "dur" with Some d -> d /. 1000.0 | None -> 0.0);
          pid = Option.value (int "pid") ~default:0;
          tid = Option.value (int "tid") ~default:0;
          trace_id;
          span_id;
          parent_span_id = int "parent_span_id";
        }
  | _ -> None

(* [spans, untraced]: events without causal ids (legacy emits) parse but
   cannot join a tree, so they are only counted. *)
let of_jsonl_string contents =
  let spans = ref [] and untraced = ref 0 in
  String.split_on_char '\n' contents
  |> List.iter (fun line ->
         if String.trim line <> "" then
           match Json.parse line with
           | Error _ -> ()
           | Ok j -> (
               match span_of_json j with
               | Some s -> spans := s :: !spans
               | None -> incr untraced));
  (List.rev !spans, !untraced)

let load path =
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_jsonl_string contents

(* --- Tree reconstruction ---------------------------------------------- *)

type tree = { span : span; children : tree list }

type trace = {
  trace_id : int;
  root : tree;
  span_count : int;  (* spans reachable from [root] *)
  orphans : int;  (* spans whose parent id never appears in the trace *)
}

let rec tree_size t = List.fold_left (fun acc c -> acc + tree_size c) 1 t.children

let build_trace trace_id spans =
  let children = Hashtbl.create 16 in
  let ids = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace ids s.span_id s) spans;
  let roots, orphans =
    List.fold_left
      (fun (roots, orphans) s ->
        match s.parent_span_id with
        | Some p when Hashtbl.mem ids p ->
            Hashtbl.add children p s;
            (roots, orphans)
        | Some _ -> (roots, orphans + 1)
        | None -> (s :: roots, orphans))
      ([], 0) spans
  in
  let rec build s =
    let kids =
      Hashtbl.find_all children s.span_id
      |> List.sort (fun a b -> compare (a.ts, a.span_id) (b.ts, b.span_id))
    in
    { span = s; children = List.map build kids }
  in
  (* One root per trace in our instrumentation (the join); should several
     appear, keep the longest-running one and count the rest as orphans. *)
  match List.sort (fun a b -> compare b.dur a.dur) roots with
  | [] -> None
  | root :: extra_roots ->
      let root = build root in
      let span_count = tree_size root in
      Some
        {
          trace_id;
          root;
          span_count;
          orphans = orphans + List.fold_left (fun acc r -> acc + tree_size (build r)) 0 extra_roots;
        }

let traces spans =
  let by_trace = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      let cur = try Hashtbl.find by_trace s.trace_id with Not_found -> [] in
      Hashtbl.replace by_trace s.trace_id (s :: cur))
    spans;
  Hashtbl.fold (fun id spans acc -> (id, spans) :: acc) by_trace []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.filter_map (fun (id, spans) -> build_trace id spans)

(* --- Critical path ----------------------------------------------------- *)

type segment = {
  kind : string;  (* span name the time is attributed to *)
  span_id : int;
  from_ms : float;
  to_ms : float;
}

(* Backwards walk: starting from the root's end, repeatedly step into the
   child whose (clamped) end time is latest; the gaps between children are
   the parent's self time.  Children may outlive their parent (async
   completions, e.g. replication acks) — their overhang is clamped to the
   parent's window so segment times always sum to the root's duration. *)
let critical_path trace =
  let segs = ref [] in
  let rec walk node upto =
    let s = node.span in
    let stop = Float.min (span_end s) upto in
    if stop > s.ts then begin
      let by_end_desc =
        List.sort (fun a b -> compare (span_end b.span) (span_end a.span)) node.children
      in
      let cursor =
        List.fold_left
          (fun cursor c ->
            let c_end = Float.min (span_end c.span) cursor in
            if c_end <= s.ts || c_end <= c.span.ts then cursor
            else begin
              if cursor > c_end then
                segs := { kind = s.name; span_id = s.span_id; from_ms = c_end; to_ms = cursor } :: !segs;
              walk c c_end;
              Float.max s.ts c.span.ts
            end)
          stop by_end_desc
      in
      if cursor > s.ts then
        segs := { kind = s.name; span_id = s.span_id; from_ms = s.ts; to_ms = cursor } :: !segs
    end
  in
  walk trace.root (span_end trace.root.span);
  List.sort (fun a b -> compare a.from_ms b.from_ms) !segs

(* --- Aggregation -------------------------------------------------------- *)

type breakdown = { kind : string; total_ms : float; share : float; count : int }

let by_kind segments =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (seg : segment) ->
      let ms, n = try Hashtbl.find tbl seg.kind with Not_found -> (0.0, 0) in
      Hashtbl.replace tbl seg.kind (ms +. (seg.to_ms -. seg.from_ms), n + 1))
    segments;
  let total = Hashtbl.fold (fun _ (ms, _) acc -> acc +. ms) tbl 0.0 in
  Hashtbl.fold
    (fun kind (ms, n) acc ->
      { kind; total_ms = ms; share = (if total > 0.0 then ms /. total else 0.0); count = n } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.total_ms a.total_ms)

(* Exact quantile over a small sorted sample (we hold every root duration
   anyway; no need for a sketch here). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (Float.round (q *. float_of_int (n - 1)))))

type root_stats = { root_name : string; roots : int; p50 : float; p99 : float; max : float }

type report = {
  trace_count : int;
  span_count : int;
  untraced : int;
  orphan_count : int;
  root_kinds : root_stats list;  (* one per root span kind, most common first *)
  overall : breakdown list;  (* critical-path time by kind, all traces *)
  tail : breakdown list;  (* same, over traces with root duration >= p99 of all roots *)
  tail_traces : (int * float) list;  (* (trace_id, root_ms), slowest first *)
}

let sorted_durations ts =
  let durs = List.map (fun t -> t.root.span.dur) ts |> Array.of_list in
  Array.sort compare durs;
  durs

(* Root durations per root kind: a join and a query are different
   requests, and one pooled quantile would describe neither. *)
let root_kinds ts =
  List.sort_uniq compare (List.map (fun t -> t.root.span.name) ts)
  |> List.map (fun root_name ->
         let durs = sorted_durations (List.filter (fun t -> t.root.span.name = root_name) ts) in
         let n = Array.length durs in
         let q = quantile durs in
         { root_name; roots = n; p50 = q 0.5; p99 = q 0.99; max = durs.(n - 1) })
  |> List.stable_sort (fun a b -> compare b.roots a.roots)

let analyze ?(untraced = 0) spans =
  let ts = traces spans in
  let p99 = quantile (sorted_durations ts) 0.99 in
  let tail_ts = List.filter (fun t -> t.root.span.dur >= p99) ts in
  {
    trace_count = List.length ts;
    span_count = List.fold_left (fun acc (t : trace) -> acc + t.span_count + t.orphans) 0 ts;
    untraced;
    orphan_count = List.fold_left (fun acc (t : trace) -> acc + t.orphans) 0 ts;
    root_kinds = root_kinds ts;
    overall = by_kind (List.concat_map critical_path ts);
    tail = by_kind (List.concat_map critical_path tail_ts);
    tail_traces =
      List.map (fun t -> (t.trace_id, t.root.span.dur)) tail_ts
      |> List.sort (fun (_, a) (_, b) -> compare b a);
  }

let breakdown_lines rows =
  List.map
    (fun b ->
      Printf.sprintf "  %-24s %12.1f ms  %5.1f%%  %6d segs" b.kind b.total_ms (100.0 *. b.share)
        b.count)
    rows

let report_to_string r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "traces: %d  spans: %d  (untraced events: %d, orphan spans: %d)" r.trace_count r.span_count
    r.untraced r.orphan_count;
  List.iter
    (fun k ->
      line "root span %S: p50=%.1fms  p99=%.1fms  max=%.1fms  n=%d" k.root_name k.p50 k.p99 k.max
        k.roots)
    r.root_kinds;
  line "critical path by span kind, all traces:";
  List.iter (line "%s") (breakdown_lines r.overall);
  line "critical path by span kind, tail traces (root >= p99 of all roots, %d trace%s):"
    (List.length r.tail_traces)
    (if List.length r.tail_traces = 1 then "" else "s");
  List.iter (line "%s") (breakdown_lines r.tail);
  (match r.tail_traces with
  | [] -> ()
  | ts ->
      line "slowest traces: %s"
        (String.concat ", "
           (List.map (fun (id, ms) -> Printf.sprintf "#%d (%.1fms)" id ms) ts)));
  Buffer.contents buf
