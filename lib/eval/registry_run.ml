(* The registry cross-check and its exports: see the interface. *)

type config = {
  routers : int;
  peers : int;
  k : int;
  seed : int;
  audit_rate : float;
  timeseries : bool;
  traced : bool;
  metered : bool;
}

let quick_config =
  {
    routers = 600;
    peers = 150;
    k = 5;
    seed = 1;
    audit_rate = 0.0;
    timeseries = false;
    traced = false;
    metered = false;
  }

type run = {
  spec : Backends.spec;
  server : Nearby.Server.t;
  answers : (int * int) list array;
  spans : Simkit.Span.sink;
  metrics : Simkit.Trace.t option;
  timeseries : Simkit.Timeseries.t option;
  auditor : Nearby.Audit.t option;
}

type t = {
  config : config;
  reference : (int * int) list array;
  runs : run list;
}

(* Join the whole population through the server, then ask everyone's k
   nearest.  The middleware gets the span sink too, so a traced store op
   is a span inside the join or query that caused it. *)
let run_backend (c : config) (w : Workload.t) ~spans ~metrics spec =
  let backend =
    Nearby.Instrumented_registry.wrap
      ?sink:(Option.map Simkit.Trace.stream_ref metrics)
      ?spans:(if Simkit.Span.enabled spans then Some spans else None)
      (Backends.backend spec)
  in
  let oracle = w.ctx.Nearby.Selector.oracle and landmarks = w.landmarks in
  let server = Nearby.Server.create ~backend ~spans oracle ~landmarks in
  let client = Nearby.Client.create oracle ~landmarks in
  let n = Array.length w.peer_routers in
  for peer = 0 to n - 1 do
    ignore (Nearby.Server.join server ~client ~peer ~attach_router:w.peer_routers.(peer))
  done;
  (* Registry runs have no simulated clock; the audit timeseries ticks on
     the query index instead, 100 queries per window. *)
  let timeseries =
    if c.timeseries || c.audit_rate > 0.0 then
      Some (Simkit.Timeseries.create ~window_ms:100.0 ())
    else None
  in
  let queries = ref 0 in
  let auditor =
    if c.audit_rate > 0.0 then
      Some
        (Nearby.Audit.create ~rate:c.audit_rate ~seed:c.seed ?timeseries
           ~clock:(fun () -> float_of_int !queries)
           server)
    else None
  in
  let answers =
    Array.init n (fun peer ->
        incr queries;
        match auditor with
        | Some a -> Nearby.Audit.neighbors a ~peer ~k:c.k
        | None -> Nearby.Server.neighbors server ~peer ~k:c.k)
  in
  { spec; server; answers; spans; metrics; timeseries; auditor }

(* Tracing, metering and auditing only observe a run, so a tree run among
   [specs] gives the reference answers; otherwise an untraced tree run is
   made for them. *)
let run (c : config) specs =
  let w = Workload.build ~routers:c.routers ~landmark_count:4 ~peers:c.peers ~seed:c.seed () in
  let runs =
    List.mapi
      (fun idx spec ->
        let spans = if c.traced then Simkit.Span.buffer ~pid:(idx + 1) () else Simkit.Span.noop in
        let metrics = if c.metered then Some (Simkit.Trace.create ()) else None in
        run_backend c w ~spans ~metrics spec)
      specs
  in
  let reference =
    match List.find_opt (fun r -> r.spec = Backends.Tree) runs with
    | Some tree -> tree.answers
    | None ->
        (run_backend { c with audit_rate = 0.0 } w ~spans:Simkit.Span.noop ~metrics:None
           Backends.Tree)
          .answers
  in
  { config = c; reference; runs }

let sections t =
  List.concat_map
    (fun r ->
      let name = Backends.to_string r.spec in
      (("server:" ^ name, Nearby.Server.trace r.server)
      :: (match r.metrics with Some m -> [ ("registry:" ^ name, m) ] | None -> []))
      @ match r.auditor with Some a -> [ ("audit:" ^ name, Nearby.Audit.trace a) ] | None -> [])
    t.runs

let metrics_json t =
  let c = t.config in
  let meta =
    Simkit.Export.capture_meta ~seed:c.seed
      ~backends:(List.map (fun r -> Backends.to_string r.spec) t.runs)
      ~extra:
        [
          ("routers", string_of_int c.routers);
          ("peers", string_of_int c.peers);
          ("k", string_of_int c.k);
        ]
      ()
  in
  let timeseries =
    List.filter_map
      (fun r -> Option.map (fun ts -> (Backends.to_string r.spec, ts)) r.timeseries)
      t.runs
  in
  Simkit.Export.metrics_json ~meta ~timeseries (sections t)

let prometheus t = Simkit.Export.prometheus (sections t)
let trace_jsonl t = String.concat "" (List.map (fun r -> Simkit.Span.to_jsonl r.spans) t.runs)
