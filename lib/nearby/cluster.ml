let log_src = Logs.Src.create "nearby.cluster" ~doc:"Replicated management-server cluster"

module Log = (val Logs.src_log log_src : Logs.LOG)

type replica = {
  id : int;
  router : Topology.Graph.node;
  server : Server.t;
  mutable alive : bool;
  mutable recovered_at : float option;
      (* Set by [recover], cleared by the sync round that brings the replica
         back in sync; the difference is the recovery time. *)
}

type t = {
  replicas : replica array;
  transport : Simkit.Transport.t;
  detector : Simkit.Failure_detector.t option;
  trace : Simkit.Trace.t;
  recorder : Simkit.Flight_recorder.t option;
  spans : Simkit.Span.sink;
  metrics : Simkit.Metrics.t option;
  mutable divergence_started_at : float option;
      (* Engine time the current divergence episode was first detected;
         [None] while the live replicas' digests agree.  Edge state for the
         divergence/convergence flight-recorder events and the
         ["cluster_antientropy_lag_ms"] stopwatch. *)
  delays : float array;  (* [target]'s per-replica scratch; nan = not a candidate *)
  ids : int option array;  (* [Some id] of each replica: [target] allocates nothing *)
  (* The write path's counters, resolved once in [trace], and the
     amplification gauge, resolved at its first value. *)
  registered : int ref;
  client_report_bytes : int ref;
  replica_bytes : int ref;
  replicate_send : int ref;
  replicate_apply : int ref;
  replicate_skip : int ref;
  replicate_prefix : int ref;
  replicate_nack : int ref;
  mutable amplification : Simkit.Metrics.gauge option;
}

let now t = Simkit.Engine.now (Simkit.Transport.engine t.transport)

let record t ~args detail =
  match t.recorder with
  | None -> ()
  | Some r -> Simkit.Flight_recorder.record r ~ts:(now t) ~kind:"cluster" ~args detail

let make ~replicas ~transport ~detector ~trace ~recorder ~spans ~metrics =
  let cell = Simkit.Trace.counter_ref trace in
  let t =
    {
      replicas;
      transport;
      detector;
      trace;
      recorder;
      spans;
      metrics;
      divergence_started_at = None;
      delays = Array.make (Array.length replicas) nan;
      ids = Array.map (fun r -> Some r.id) replicas;
      registered = cell "cluster_register";
      client_report_bytes = cell "cluster_client_report_bytes";
      replica_bytes = cell "cluster_replica_bytes";
      replicate_send = cell "cluster_replicate_send";
      replicate_apply = cell "cluster_replicate_apply";
      replicate_skip = cell "cluster_replicate_skip";
      replicate_prefix = cell "cluster_replicate_prefix";
      replicate_nack = cell "cluster_replicate_nack";
      amplification = None;
    }
  in
  (* Registration stamps read the engine clock, so report staleness is in
     engine milliseconds fleet-wide. *)
  Array.iter (fun r -> Server.set_clock r.server (fun () -> now t)) replicas;
  t

let single ~transport ~router server =
  make
    ~replicas:[| { id = 0; router; server; alive = true; recovered_at = None } |]
    ~transport ~detector:None ~trace:(Simkit.Trace.create ()) ~recorder:None
    ~spans:Simkit.Span.noop ~metrics:None

let watch_replica t r =
  match t.detector with
  | None -> ()
  | Some d ->
      Simkit.Failure_detector.watch d ~peer:r.id ~router:r.router ~alive:(fun () -> r.alive)

let create ?(detector_config = Simkit.Failure_detector.default_config) ?recorder
    ?(spans = Simkit.Span.noop) ?metrics ~transport ~client_router ~make_server ?restore_server:_
    ~routers () =
  if Array.length routers = 0 then invalid_arg "Cluster.create: no replicas";
  let distinct = Hashtbl.create 8 in
  Array.iter
    (fun router ->
      if Hashtbl.mem distinct router then invalid_arg "Cluster.create: duplicate replica router";
      Hashtbl.add distinct router ())
    routers;
  let trace = Simkit.Trace.create () in
  let replicas =
    Array.mapi
      (fun id router -> { id; router; server = make_server (); alive = true; recovered_at = None })
      routers
  in
  let detector =
    Simkit.Failure_detector.create detector_config ~transport ~monitor_router:client_router
      ~on_failure:(fun id ->
        Simkit.Trace.incr trace "cluster_suspected";
        (match recorder with
        | None -> ()
        | Some r ->
            Simkit.Flight_recorder.record r
              ~ts:(Simkit.Engine.now (Simkit.Transport.engine transport))
              ~kind:"cluster"
              ~args:[ ("replica", Simkit.Span.Int id) ]
              "suspected");
        Log.debug (fun m -> m "replica %d suspected" id))
  in
  let t =
    make ~replicas ~transport ~detector:(Some detector) ~trace ~recorder ~spans ~metrics
  in
  Array.iter (fun r -> watch_replica t r) replicas;
  t

let replica_count t = Array.length t.replicas
let trace t = t.trace

(* Fleet roll-up: one fresh trace holding every replica's server streams
   merged (sketch-backed quantiles, counters added) plus the cluster's own
   counters.  Dead replicas are scraped too -- their state survives a
   crash, and a fleet p99 that silently dropped a third of its samples
   would flatter the tail. *)
let fleet_trace t =
  let into = Simkit.Trace.create () in
  Array.iter
    (fun r -> Simkit.Trace.merge_into ~into (Server.trace r.server))
    t.replicas;
  Simkit.Trace.merge_into ~into t.trace;
  into

(* Dimensional scrape: every replica's server trace filed under its
   replica index, so per-replica tails sit next to the merged fleet view
   in one labeled registry. *)
let scrape t ~into =
  Array.iteri
    (fun i r ->
      Simkit.Metrics.merge_trace into
        ~labels:[ ("replica", string_of_int i) ]
        (Server.trace r.server))
    t.replicas
let replica_router t i = t.replicas.(i).router
let server_of t i = t.replicas.(i).server
let measurement_server t = t.replicas.(0).server
let graph t = Server.graph t.replicas.(0).server
let is_alive t i = t.replicas.(i).alive

(* Replica routers are distinct ([create] checks), so the first match is
   the one. *)
let rec replica_from t router i =
  if i < 0 || t.replicas.(i).router = router then i else replica_from t router (i - 1)

let replica_at t ~router = replica_from t router (Array.length t.replicas - 1)

(* The client's failure-detector view: a replica is a candidate target
   unless the monitor currently suspects it.  Ground-truth [alive] is never
   consulted here — the client only knows what the heartbeats tell it. *)
let believed_live t (r : replica) =
  match t.detector with
  | None -> r.alive
  | Some d ->
      Simkit.Failure_detector.is_watched d ~peer:r.id
      && not (Simkit.Failure_detector.is_suspected d ~peer:r.id)

let live_count t =
  Array.fold_left (fun acc r -> if r.alive then acc + 1 else acc) 0 t.replicas

(* Candidate targets ordered primary-first: ascending (network delay from
   [src], id).  Attempt n takes the (n-1 mod live)-th of them, so a retry
   fails over to the next-closest believed-live replica immediately instead
   of burning its whole budget on a dead primary.  The k-th candidate is
   the one with exactly k candidates ordered before it: no list, no sort,
   and the delays are read from the scratch cells unboxed. *)
let target ?first t ~src ~attempt =
  let n = Array.length t.replicas and d = t.delays in
  let live = ref 0 in
  for i = 0 to n - 1 do
    let r = t.replicas.(i) in
    if believed_live t r then begin
      (match first with
      | Some f when f = r.id -> d.(i) <- neg_infinity
      | _ -> Simkit.Transport.one_way_delay_into t.transport ~src ~dst:r.router d i);
      incr live
    end
    else d.(i) <- nan
  done;
  if !live = 0 then None
  else begin
    let rank = (attempt - 1) mod !live and found = ref (-1) and i = ref 0 in
    while !found < 0 do
      if not (Float.is_nan d.(!i)) then begin
        let before = ref 0 in
        for j = 0 to n - 1 do
          if d.(j) < d.(!i) || (d.(j) = d.(!i) && j < !i) then incr before
        done;
        if !before = rank then found := !i
      end;
      incr i
    done;
    t.ids.(!found)
  end

(* Replication amplification: how many bytes the cluster moves per byte a
   client uploads — (client upload bytes + replica fan-out bytes) / client
   upload bytes.  Uploads are first-round prefixes and full reports;
   fan-out bytes are every replication message sent: prefixes, full
   reports, and a refused prefix's NACK and resent report.  A replica may
   need more of a route than the client's prefix carried, so the ratio is
   not bounded by the replica count.  Anti-entropy snapshot traffic is
   deliberately excluded (it is repair cost, not write cost).  [nan] until
   the first client upload arrives. *)
let replication_amplification t =
  let client = !(t.client_report_bytes) in
  if client = 0 then Float.nan
  else float_of_int (client + !(t.replica_bytes)) /. float_of_int client

let update_amplification t =
  match t.metrics with
  | None -> ()
  | Some m when !(t.client_report_bytes) > 0 ->
      let g =
        match t.amplification with
        | Some g -> g
        | None ->
            let g = Simkit.Metrics.gauge_ref m "wire_replication_amplification" ~labels:[] in
            t.amplification <- Some g;
            g
      in
      g.value <- replication_amplification t
  | Some _ -> ()

(* The apply rule of every replication message: a replica that is down
   when the message lands, or already holds the peer, skips it -- the
   idempotence a replayed fan-out needs; anti-entropy heals a missed write
   later.  Returns whether the entry was applied. *)
let apply_entry t (o : replica) ~peer ~path ~probes =
  if o.alive && not (Server.mem o.server peer) then begin
    Server.register_replica o.server ~peer ~attach_router:path.Traceroute.Path.src
      ~landmark:path.dst ~path ~probes_spent:probes;
    incr t.replicate_apply;
    true
  end
  else begin
    incr t.replicate_skip;
    false
  end

(* One "replicate" span per replication message, open from send to its
   outcome, so in a trace tree the replication lag is visible next to the
   join that caused it.  A message the transport drops leaves its span
   open (never emitted), like the write it lost. *)
let replicate_span t ~parent ~peer (o : replica) =
  if Simkit.Span.enabled t.spans then
    Simkit.Span.start_span t.spans ~name:"replicate" ~tid:peer ?parent
      [ ("peer", Simkit.Span.Int peer); ("to_replica", Simkit.Span.Int o.id) ]
  else Simkit.Span.none

let close_span t span outcome =
  if Simkit.Span.enabled t.spans then
    Simkit.Span.finish ~args:[ ("outcome", Simkit.Span.Str outcome) ] span

(* Replication traffic rides the transport (paying latency, loss and
   partitions), charged as replica path-report bytes. *)
let send_replication t ~src ~dst msg ~bytes deliver =
  t.replica_bytes := !(t.replica_bytes) + bytes;
  Simkit.Transport.send ~kind:(Wire.kind msg) ~dir:"replica" t.transport ~src ~dst
    ~size_bytes:bytes deliver

(* [msg] has landed on replica [o].  A full report is applied by
   [apply_entry].  A prefix is completed from the replica's own store;
   when it cannot be, the replica sends a NACK back and the primary, if
   still up and still holding the peer, answers with the route it stores
   as a full report, in a fresh span. *)
let rec deliver t ~primary (o : replica) span msg ~probes =
  match msg with
  | Wire.Replica_prefix { peer; donor; probes; prefix } ->
      if (not o.alive) || Server.mem o.server peer then begin
        incr t.replicate_skip;
        close_span t span "skipped"
      end
      else if Server.register_replica_prefix o.server ~peer ~donor ~prefix ~probes_spent:probes
      then begin
        incr t.replicate_apply;
        close_span t span "applied"
      end
      else begin
        incr t.replicate_nack;
        close_span t span "nacked";
        let nack = Wire.Replica_nack { peer } in
        send_replication t ~src:o.router ~dst:primary.router nack ~bytes:(Wire.byte_size nack)
          (fun () ->
            if primary.alive && Server.mem primary.server peer then begin
              let report = Server.stored_report primary.server ~peer in
              let parent = Simkit.Span.context_of span in
              replicate t ~primary o ~parent:(Some parent) ~peer report
                ~bytes:(Wire.byte_size report) ~probes;
              update_amplification t
            end)
      end
  | Wire.Path_report { peer; path } ->
      close_span t span (if apply_entry t o ~peer ~path ~probes then "applied" else "skipped")
  | _ -> invalid_arg "Cluster: not a replication message"

and replicate t ~primary (o : replica) ~parent ~peer msg ~bytes ~probes =
  let span = replicate_span t ~parent ~peer o in
  incr t.replicate_send;
  send_replication t ~src:primary.router ~dst:o.router msg ~bytes (fun () ->
      deliver t ~primary o span msg ~probes)

(* Write fan-out: the processing replica sends every other replica the
   registration, as the shortest message that replica can complete
   ({!Server.replication_prefix}), else as the full [report] -- by
   default the route it stores -- and [deliver] runs when it lands. *)
let fan_out ?report t ~from_replica ~peer ~probes =
  let primary = t.replicas.(from_replica) in
  (* A lone replica has no one to send to: skip the donor search. *)
  if Array.length t.replicas > 1 then begin
    let msg =
      match Server.replication_prefix primary.server ~peer with
      | Some prefix -> prefix
      | None -> (
          match report with Some r -> r | None -> Server.stored_report primary.server ~peer)
    in
    let bytes = Wire.byte_size msg in
    let parent = Simkit.Span.current t.spans in
    for i = 0 to Array.length t.replicas - 1 do
      let o = t.replicas.(i) in
      if o.id <> from_replica then begin
        (match msg with Wire.Replica_prefix _ -> incr t.replicate_prefix | _ -> ());
        replicate t ~primary o ~parent ~peer msg ~bytes ~probes
      end
    done
  end;
  update_amplification t

(* A client upload the cluster handled, [bytes] long: the amplification's
   denominator. *)
let count_upload t bytes = t.client_report_bytes := !(t.client_report_bytes) + bytes

type answer =
  | Registered of { info : Server.peer_info; neighbors : (int * int) list; reply_bytes : int }
  | Continue of { replica : int }

(* The answer to a join [r] holds: its info, and the neighbor reply with
   the size the server charged it, with [request_bytes] for the query. *)
let registered (r : replica) ~peer ~k ~request_bytes info =
  let neighbors, reply_bytes = Server.sized_neighbors r.server ~peer ~k ~request_bytes in
  Registered { info; neighbors; reply_bytes }

(* A retry whose predecessor's reply was lost: idempotent re-answer. *)
let reanswer t (r : replica) ~peer ~k ~request_bytes info =
  Simkit.Trace.incr t.trace "cluster_duplicate_register";
  registered r ~peer ~k ~request_bytes info

let handle_registration t ~replica ~peer ~attach_router ~measurement ~k =
  let r = t.replicas.(replica) and request_bytes = Wire.neighbor_request_size ~peer ~k in
  let report = Wire.Path_report { peer; path = measurement.Client.path } in
  if not r.alive then None
  else if Server.mem r.server peer then
    (* The report arrived again, in the same frame as the query. *)
    Some
      (reanswer t r ~peer ~k ~request_bytes:(request_bytes + Wire.byte_size report)
         (Option.get (Server.info r.server peer)))
  else begin
    let info = Server.register_measured r.server ~peer ~attach_router measurement in
    incr t.registered;
    count_upload t (Wire.byte_size report);
    fan_out ~report t ~from_replica:replica ~peer ~probes:measurement.probes;
    Some (registered r ~peer ~k ~request_bytes info)
  end

let handle_prefix t ~replica ~peer ~attach_router ~measurement ~prefix ~bytes ~k =
  let r = t.replicas.(replica) in
  if not r.alive then None
  else if Server.mem r.server peer then
    (* The info the fresh answer carried; the frame arrived again. *)
    Some
      (reanswer t r ~peer ~k ~request_bytes:bytes
         (Server.measured_info ~attach_router measurement))
  else begin
    let m = measurement in
    count_upload t bytes;
    match Server.register_prefix r.server ~peer ~attach_router ~prefix ~bytes m with
    | None -> Some (Continue { replica })
    | Some info ->
        incr t.registered;
        fan_out t ~from_replica:replica ~peer ~probes:m.probes;
        (* [register_prefix] charged the frame, [k] included. *)
        Some (registered r ~peer ~k ~request_bytes:0 info)
  end

(* --- Crash / recover --------------------------------------------------- *)

let crash t i =
  let r = t.replicas.(i) in
  if r.alive then begin
    r.alive <- false;
    Simkit.Trace.incr t.trace "cluster_crashes";
    record t ~args:[ ("replica", Simkit.Span.Int i) ] "crash";
    Log.debug (fun m -> m "replica %d crashed" i)
  end

let recover t i =
  let r = t.replicas.(i) in
  if not r.alive then begin
    r.alive <- true;
    r.recovered_at <- Some (now t);
    Simkit.Trace.incr t.trace "cluster_recoveries";
    record t ~args:[ ("replica", Simkit.Span.Int i) ] "recover";
    (* A fresh watch must not inherit the silence timer of the crashed
       incarnation: unwatch + watch restarts both loops from now. *)
    (match t.detector with
    | None -> ()
    | Some d ->
        Simkit.Failure_detector.unwatch d ~peer:r.id;
        watch_replica t r);
    Log.debug (fun m -> m "replica %d recovered" i)
  end

(* --- Divergence detection ---------------------------------------------- *)

(* The anti-entropy source rule, shared with the digest comparison so the
   divergence reference is the replica a sync round would copy from: most
   registered peers, ties to the lowest id. *)
let most_complete live =
  List.fold_left
    (fun best r ->
      let n = Server.peer_count r.server and m = Server.peer_count best.server in
      if n > m || (n = m && r.id < best.id) then r else best)
    (List.hd live) (List.tl live)

(* One digest comparison across the live replicas.  O(replicas) int64
   compares — the registries maintain their digests incrementally — so this
   is cheap enough to piggyback on every sync round and on any
   failure-detector-rate poll an experiment wants.

   Episode edges are what get recorded: the first check that sees a
   mismatch emits one "divergence" event (with the offending replica ids)
   and starts the stopwatch; the first check that sees agreement again
   emits one "convergence" event and observes the elapsed engine time as
   ["cluster_antientropy_lag_ms"].  Checks inside an episode change
   nothing, so a flapping gauge cannot spam the flight recorder. *)
let digest_check t =
  let live = Array.to_list t.replicas |> List.filter (fun r -> r.alive) in
  let divergent =
    match live with
    | [] | [ _ ] -> []
    | live ->
        let reference = most_complete live in
        let reference_digest = Server.digest reference.server in
        live
        |> List.filter (fun r ->
               r.id <> reference.id && Server.digest r.server <> reference_digest)
        |> List.map (fun r -> r.id)
  in
  Simkit.Trace.incr t.trace "cluster_digest_checks";
  (match t.metrics with
  | None -> ()
  | Some m ->
      let result = if divergent = [] then "consistent" else "divergent" in
      Simkit.Metrics.incr m "cluster_digest_checks_total" ~labels:[ ("result", result) ];
      Simkit.Metrics.set m "cluster_divergent_replicas" ~labels:[]
        (float_of_int (List.length divergent)));
  (match (divergent, t.divergence_started_at) with
  | [], None -> ()
  | [], Some since ->
      let lag = now t -. since in
      Simkit.Trace.observe t.trace "cluster_antientropy_lag_ms" lag;
      record t ~args:[ ("lag_ms", Simkit.Span.Float lag) ] "convergence";
      Log.debug (fun m -> m "replicas reconverged after %.1f ms" lag);
      t.divergence_started_at <- None
  | ids, None ->
      t.divergence_started_at <- Some (now t);
      let replicas = String.concat "," (List.map string_of_int ids) in
      record t ~args:[ ("replicas", Simkit.Span.Str replicas) ] "divergence";
      Log.debug (fun m -> m "replicas diverged: %s" replicas)
  | _, Some _ -> (* still inside the episode: no new edge *) ());
  divergent

let divergence_since t = t.divergence_started_at

(* --- Anti-entropy ------------------------------------------------------ *)

(* Repair traffic rides the transport's accounting as "snapshot" bytes even
   though the sim applies it synchronously: in a deployment it crosses the
   network. *)
let charge_repair t ~src ~dst bytes =
  Simkit.Trace.add_count t.trace "cluster_sync_bytes" bytes;
  Simkit.Transport.charge ~kind:"snapshot" ~dir:"replica" t.transport ~src:src.router
    ~dst:dst.router ~size_bytes:bytes

(* One sync round:
   1. pick the most complete live replica as the source (max registered
      peers, ties to the lowest id);
   2. summary: each live replica whose content digest differs from the
      source's sends its bucket summary, and the source names the buckets
      that differ;
   3. union phase: each such straggler pushes the entries of those buckets
      that the source lacks into the source, so no write is lost to the
      catch-up that follows;
   4. catch-up phase: every straggler whose digest still differs receives
      the source's entries of the buckets that now differ, which replace
      its own there.  A straggler whose digest already matches moves no
      bytes (counter ["cluster_sync_skipped"]).  A replica recovering here
      closes its [recovered_at] stopwatch into ["cluster_recovery_ms"].

   The cost is the summaries plus the differing buckets, whatever the
   member count.  A digest comparison runs at both ends of the round, so
   divergence is detected no later than the next sync tick and
   reconvergence is recorded the moment the repair lands. *)
let sync_round t =
  Simkit.Span.with_span t.spans ~name:"sync_round"
    [ ("live", Simkit.Span.Int (live_count t)) ]
  @@ fun _ctx ->
  Simkit.Trace.incr t.trace "cluster_sync_rounds";
  ignore (digest_check t);
  (let live = Array.to_list t.replicas |> List.filter (fun r -> r.alive) in
  match live with
  | [] | [ _ ] ->
      (* Nothing to reconcile; a lone recovered replica is trivially in sync. *)
      List.iter
        (fun r ->
          match r.recovered_at with
          | Some since ->
              Simkit.Trace.observe t.trace "cluster_recovery_ms" (now t -. since);
              r.recovered_at <- None
          | None -> ())
        live
  | live ->
      let source = most_complete live in
      (* A straggler's summary is sent once: it does not change during the
         round, so the source can compare it again after the union. *)
      let summaries = Hashtbl.create 4 in
      let summary_of r =
        match Hashtbl.find_opt summaries r.id with
        | Some summary -> summary
        | None ->
            let summary = Server.bucket_summary r.server in
            charge_repair t ~src:r ~dst:source (String.length summary);
            Hashtbl.add summaries r.id summary;
            summary
      in
      let differing r =
        match Server.differing_buckets source.server (summary_of r) with
        | Ok buckets -> buckets
        | Error e ->
            Log.err (fun m -> m "replica %d bucket summary rejected: %s" r.id e);
            []
      in
      let stragglers () =
        let source_digest = Server.digest source.server in
        List.filter
          (fun r -> r.id <> source.id && Server.digest r.server <> source_digest)
          live
      in
      (* Union: push the stragglers' entries the source is missing. *)
      List.iter
        (fun r ->
          let push =
            Server.snapshot_buckets ~only:(fun peer -> not (Server.mem source.server peer))
              r.server (differing r)
          in
          match Server.apply_buckets source.server push with
          | Ok 0 -> ()
          | Ok pushed ->
              Simkit.Trace.add_count t.trace "cluster_sync_union" pushed;
              charge_repair t ~src:r ~dst:source (String.length push)
          | Error e -> Log.err (fun m -> m "union from replica %d failed: %s" r.id e))
        (stragglers ());
      (* Catch-up: the source's differing buckets replace the straggler's. *)
      let repaired = stragglers () in
      let skipped = List.length live - 1 - List.length repaired in
      if skipped > 0 then Simkit.Trace.add_count t.trace "cluster_sync_skipped" skipped;
      List.iter
        (fun r ->
          let buckets = differing r in
          let data = Server.snapshot_buckets source.server buckets in
          charge_repair t ~src:source ~dst:r (String.length data);
          match Server.apply_buckets ~replace:buckets r.server data with
          | Ok written ->
              Simkit.Trace.incr t.trace "cluster_sync_restores";
              Simkit.Trace.add_count t.trace "cluster_sync_buckets" (List.length buckets);
              Simkit.Trace.add_count t.trace "cluster_sync_repaired" written;
              record t
                ~args:
                  [
                    ("replica", Simkit.Span.Int r.id);
                    ("source", Simkit.Span.Int source.id);
                    ("buckets", Simkit.Span.Int (List.length buckets));
                    ("written", Simkit.Span.Int written);
                  ]
                "sync_repair";
              Log.debug (fun m ->
                  m "replica %d repaired from replica %d (%d buckets, %d entries)" r.id source.id
                    (List.length buckets) written)
          | Error e -> Log.err (fun m -> m "replica %d repair failed: %s" r.id e))
        repaired;
      let source_digest = Server.digest source.server in
      List.iter
        (fun r ->
          match r.recovered_at with
          | Some since when Server.digest r.server = source_digest ->
              Simkit.Trace.observe t.trace "cluster_recovery_ms" (now t -. since);
              record t
                ~args:
                  [
                    ("replica", Simkit.Span.Int r.id);
                    ("recovery_ms", Simkit.Span.Float (now t -. since));
                  ]
                "back_in_sync";
              r.recovered_at <- None
          | _ -> ())
        live);
  ignore (digest_check t)

let start_sync t ~period_ms ~until =
  if period_ms <= 0.0 then invalid_arg "Cluster.start_sync: period must be positive";
  let e = Simkit.Transport.engine t.transport in
  let rec tick at =
    if at <= until then
      Simkit.Engine.schedule_at e ~time:at (fun () ->
          sync_round t;
          tick (at +. period_ms))
  in
  tick (Simkit.Engine.now e +. period_ms)

let consistent t =
  let live = Array.to_list t.replicas |> List.filter (fun r -> r.alive) in
  match live with
  | [] -> true
  | first :: rest ->
      let reference = Server.digest first.server in
      List.for_all (fun r -> Server.digest r.server = reference) rest

let check_invariants t =
  Array.iter (fun r -> Server.check_invariants r.server) t.replicas
