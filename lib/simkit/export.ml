type meta = {
  git_rev : string;
  date_utc : string;
  seed : int option;
  backends : string list;
  ocaml_version : string;
  word_size : int;
  domains : int;
  extra : (string * string) list;
}

let git_rev () =
  (* Best effort: metrics files must be writable from any checkout state. *)
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> String.trim line
    | _ -> "unknown"
  with _ -> "unknown"

let utc_now () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let capture_meta ?seed ?(backends = []) ?(extra = []) () =
  {
    git_rev = git_rev ();
    date_utc = utc_now ();
    seed;
    backends;
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
    domains = Domain.recommended_domain_count ();
    extra;
  }

let meta_base_fields m =
  [
    ("git_rev", Json_str.quote m.git_rev);
    ("date_utc", Json_str.quote m.date_utc);
    ("seed", (match m.seed with Some s -> string_of_int s | None -> "null"));
    ("backends", "[" ^ String.concat ", " (List.map Json_str.quote m.backends) ^ "]");
    ("ocaml_version", Json_str.quote m.ocaml_version);
    ("word_size", string_of_int m.word_size);
    ("domains", string_of_int m.domains);
  ]

let meta_json m =
  let fields = meta_base_fields m @ List.map (fun (k, v) -> (k, Json_str.quote v)) m.extra in
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Json_str.quote k ^ ": " ^ v) fields)
  ^ "}"

(* The one place every BENCH_*.json stamps its run metadata.  The base
   toolchain keys are fixed and bench-specific knobs live under a single
   "params" object, so every emitted bench file carries the identical
   meta key set: git_rev, date_utc, seed, backends, ocaml_version,
   word_size, domains, params (locked by the suite). *)
let bench_json ?seed ?backends ?(params = []) fields =
  let m = capture_meta ?seed ?backends () in
  let meta =
    Json_str.obj
      (meta_base_fields m
      @ [ ("params", Json_str.obj (List.map (fun (k, v) -> (k, Json_str.quote v)) params)) ])
  in
  Json_str.obj (("meta", meta) :: fields)

let exemplar_json (e : Trace.exemplar) =
  Json_str.obj
    [
      ("bucket", string_of_int e.bucket);
      ("trace_id", string_of_int e.trace_id);
      ("value", Json_str.number e.value);
    ]

let summary_json ?(exemplars = []) (s : Trace.summary) buckets =
  let buckets_json =
    Json_str.arr
      (List.map
         (fun (_, le, c) -> Printf.sprintf "[%s, %d]" (Json_str.number le) c)
         buckets)
  in
  let fields =
    [
      ("count", string_of_int s.Trace.count);
      ("mean", Json_str.number s.Trace.mean);
      ("stddev", Json_str.number s.Trace.stddev);
      ("ci95", Json_str.number s.Trace.ci95);
      ("min", Json_str.number_opt s.Trace.min);
      ("max", Json_str.number_opt s.Trace.max);
      ("p50", Json_str.number s.Trace.p50);
      ("p90", Json_str.number s.Trace.p90);
      ("p99", Json_str.number s.Trace.p99);
      ("buckets", buckets_json);
    ]
    @
    match exemplars with
    | [] -> []
    | es -> [ ("exemplars", Json_str.arr (List.map exemplar_json es)) ]
  in
  Json_str.obj fields

let section_json trace =
  let counters =
    Trace.counters trace |> List.map (fun (name, v) -> (name, string_of_int v))
  in
  let stats =
    Trace.summaries trace
    |> List.map (fun (name, s) ->
           ( name,
             summary_json ~exemplars:(Trace.exemplars trace name) s (Trace.buckets trace name) ))
  in
  Json_str.obj [ ("counters", Json_str.obj counters); ("stats", Json_str.obj stats) ]

(* One labeled registry as nested JSON: every series carries its parsed
   identity (base name + label object) next to its rendered value, so a
   consumer never has to re-parse canonical `name{k="v"}` keys. *)
let labeled_json m =
  let trace = Metrics.trace m in
  let counters = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace counters k v) (Trace.counters trace);
  let gauges = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace gauges k v) (Metrics.gauge_bindings m);
  let labels_json labels =
    Json_str.obj (List.map (fun (k, v) -> (k, Json_str.quote v)) labels)
  in
  let series =
    Metrics.series m
    |> List.concat_map (fun (name, labels, key) ->
           let entry kind fields =
             Json_str.obj
               ([ ("name", Json_str.quote name);
                  ("labels", labels_json labels);
                  ("kind", Json_str.quote kind) ]
               @ fields)
           in
           let counter =
             match Hashtbl.find_opt counters key with
             | Some v -> [ entry "counter" [ ("value", string_of_int v) ] ]
             | None -> []
           in
           let stream =
             match Trace.summary trace key with
             | Some s ->
                 [ entry "stream"
                     [ ("stats",
                        summary_json ~exemplars:(Trace.exemplars trace key) s
                          (Trace.buckets trace key)) ] ]
             | None -> []
           in
           let gauge =
             match Hashtbl.find_opt gauges key with
             | Some v -> [ entry "gauge" [ ("value", Json_str.number v) ] ]
             | None -> []
           in
           counter @ stream @ gauge)
  in
  Json_str.obj
    [
      ("series", Json_str.arr series);
      ("overflow_routed", string_of_int (Metrics.overflow_routed m));
    ]

let metrics_json ?meta ?(timeseries = []) ?(labeled = []) ?runtime sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  (match meta with
  | Some m -> Buffer.add_string buf (Printf.sprintf "  \"meta\": %s,\n" (meta_json m))
  | None -> ());
  Buffer.add_string buf "  \"sections\": {\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (name, trace) -> Printf.sprintf "    %s: %s" (Json_str.quote name) (section_json trace))
          sections));
  Buffer.add_string buf "\n  }";
  (match labeled with
  | [] -> ()
  | ms ->
      Buffer.add_string buf ",\n  \"labeled\": {\n";
      Buffer.add_string buf
        (String.concat ",\n"
           (List.map
              (fun (name, m) ->
                Printf.sprintf "    %s: %s" (Json_str.quote name) (labeled_json m))
              ms));
      Buffer.add_string buf "\n  }");
  (match runtime with
  | None -> ()
  | Some rp ->
      Buffer.add_string buf
        (Printf.sprintf ",\n  \"runtime\": %s" (Runtime_profile.to_json rp)));
  (match timeseries with
  | [] -> ()
  | ts ->
      Buffer.add_string buf ",\n  \"timeseries\": {\n";
      Buffer.add_string buf
        (String.concat ",\n"
           (List.map
              (fun (name, t) ->
                Printf.sprintf "    %s: %s" (Json_str.quote name) (Timeseries.to_json t))
              ts));
      Buffer.add_string buf "\n  }");
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* --- Prometheus text exposition ------------------------------------- *)

let sanitize name =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name
  in
  (* A metric name may not start with a digit in the exposition format. *)
  if mapped = "" then "_"
  else match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

(* Prometheus accepts NaN sample values; use them rather than dropping the
   series so an empty stream is still visible in the scrape. *)
let prom_number v = if Float.is_nan v then "NaN" else Json_str.number v

let prometheus ?(prefix = "nearby") sections =
  let prefix = sanitize prefix in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (section, trace) ->
      let base name = Printf.sprintf "%s_%s_%s" prefix (sanitize section) (sanitize name) in
      List.iter
        (fun (name, v) ->
          let metric = base name ^ "_total" in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" metric metric v))
        (Trace.counters trace);
      List.iter
        (fun (name, (s : Trace.summary)) ->
          let metric = base name in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" metric);
          List.iter
            (fun (q, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%s{quantile=\"%s\"} %s\n" metric q (prom_number v)))
            [ ("0.5", s.Trace.p50); ("0.9", s.Trace.p90); ("0.99", s.Trace.p99) ];
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" metric (prom_number (s.Trace.mean *. float_of_int s.Trace.count)));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" metric s.Trace.count);
          (* Streams with tagged samples additionally expose their sketch
             buckets as a histogram, each bucket line carrying its latest
             exemplar in the OpenMetrics style: `... # {trace_id="N"} value`.
             Plain Prometheus parsers treat the suffix as a comment. *)
          match Trace.exemplars trace name with
          | [] -> ()
          | exemplars ->
              let hist_metric = metric ^ "_hist" in
              Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" hist_metric);
              let cumulative = ref 0 in
              List.iter
                (fun (bucket, le, count) ->
                  cumulative := !cumulative + count;
                  let exemplar =
                    match
                      List.find_opt (fun (e : Trace.exemplar) -> e.bucket = bucket) exemplars
                    with
                    | Some e ->
                        Printf.sprintf " # {trace_id=\"%d\"} %s" e.trace_id
                          (prom_number e.value)
                    | None -> ""
                  in
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket{le=\"%g\"} %d%s\n" hist_metric le !cumulative
                       exemplar))
                (Trace.buckets trace name);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" hist_metric s.Trace.count);
              Buffer.add_string buf (Printf.sprintf "%s_count %d\n" hist_metric s.Trace.count))
        (Trace.summaries trace))
    sections;
  Buffer.contents buf

(* Label pairs rendered to the exposition grammar: sorted keys sanitized
   like metric names, values backslash-escaped.  [extra] appends
   renderer-owned labels (e.g. quantile) after the user's. *)
let prom_labels ?(extra = []) labels =
  match labels @ extra with
  | [] -> ""
  | pairs ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize k) (Json_str.escape v))
             pairs)
      ^ "}"

let prometheus_labeled ?(prefix = "nearby") sections =
  let prefix = sanitize prefix in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (section, m) ->
      let trace = Metrics.trace m in
      let counters = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace counters k v) (Trace.counters trace);
      let gauges = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace gauges k v) (Metrics.gauge_bindings m);
      let typed = Hashtbl.create 16 in
      let emit_type metric kind =
        if not (Hashtbl.mem typed metric) then begin
          Hashtbl.add typed metric ();
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" metric kind)
        end
      in
      List.iter
        (fun (name, labels, key) ->
          let metric =
            Printf.sprintf "%s_%s_%s" prefix (sanitize section) (sanitize name)
          in
          (match Hashtbl.find_opt counters key with
          | Some v ->
              (* Counters get the conventional _total suffix — unless the
                 source name already carries it (wire_bytes_total etc.). *)
              let metric =
                if String.ends_with ~suffix:"_total" metric then metric
                else metric ^ "_total"
              in
              emit_type metric "counter";
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" metric (prom_labels labels) v)
          | None -> ());
          (match Trace.summary trace key with
          | Some s ->
              emit_type metric "summary";
              List.iter
                (fun (q, v) ->
                  Buffer.add_string buf
                    (Printf.sprintf "%s%s %s\n" metric
                       (prom_labels ~extra:[ ("quantile", q) ] labels)
                       (prom_number v)))
                [ ("0.5", s.Trace.p50); ("0.9", s.Trace.p90); ("0.99", s.Trace.p99) ];
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" metric (prom_labels labels)
                   (prom_number (s.Trace.mean *. float_of_int s.Trace.count)));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" metric (prom_labels labels)
                   s.Trace.count)
          | None -> ());
          match Hashtbl.find_opt gauges key with
          | Some v ->
              emit_type metric "gauge";
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" metric (prom_labels labels) (prom_number v))
          | None -> ())
        (Metrics.series m))
    sections;
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_bench ~path ?seed ?backends ?params fields =
  write_file path (bench_json ?seed ?backends ?params fields)
