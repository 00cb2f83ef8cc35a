let wait_series_name = "admission_wait_ms"
let depth_series_name = "admission_queue_depth"

type policy =
  | Drop_tail
  | Deadline of { max_wait_ms : float }
  | Slo_shed of { spec : Simkit.Slo.spec; poll_every_ms : float }

let slo_shed ?(lookback = 4) ?(burn_threshold = 0.5) ?(poll_every_ms = 100.0)
    ~wait_p99_limit_ms () =
  Slo_shed
    {
      spec =
        Simkit.Slo.spec ~lookback ~burn_threshold
          (Simkit.Slo.Quantile_max
             { series = wait_series_name; q = 0.99; limit = wait_p99_limit_ms });
      poll_every_ms;
    }

type config = {
  capacity : int;
  service_rate_per_s : float;
  batch : int;
  policy : policy;
}

let validate c =
  if c.capacity < 1 then invalid_arg "Admission: capacity must be >= 1";
  if c.service_rate_per_s <= 0.0 then invalid_arg "Admission: service rate must be positive";
  if c.batch < 1 then invalid_arg "Admission: batch must be >= 1";
  match c.policy with
  | Drop_tail -> ()
  | Deadline { max_wait_ms } ->
      if max_wait_ms <= 0.0 then invalid_arg "Admission: deadline must be positive"
  | Slo_shed { poll_every_ms; _ } ->
      if poll_every_ms <= 0.0 then invalid_arg "Admission: poll period must be positive"

type request = {
  submitted_at : float;
  serve : queued_ms:float -> unit;
  shed : reason:string -> unit;
}

type t = {
  engine : Simkit.Engine.t;
  config : config;
  metrics : Simkit.Metrics.t option;
  ts : Simkit.Timeseries.t;
  recorder : Simkit.Flight_recorder.t option;
  on_drain : (served:int -> unit) option;
  queue : request Queue.t;
  mutable depth : int;
  mutable max_depth : int;
  (* The registry's [admission_*_total] series, when there is one. *)
  submitted : Simkit.Trace.counter_cell;
  admitted : Simkit.Trace.counter_cell;
  sheds : (string * Simkit.Trace.counter_cell) list;  (* by reason, alphabetical *)
  mutable depth_gauge : Simkit.Metrics.gauge option;  (* from its first value *)
  wait : Simkit.Trace.stream_cell option;  (* the registry's [admission_wait_ms] *)
  mutable drains : int;
  mutable drain_armed : bool;
  monitor : Simkit.Slo.monitor option;
  mutable shedding : bool;
  mutable poll_armed : bool;
  opened : Simkit.Trace.counter_cell;  (* shed-state edges, [admission_slo_transitions_total] *)
  closed : Simkit.Trace.counter_cell;
  tick : float;
  wait_series : Simkit.Timeseries.series;
  depth_series : Simkit.Timeseries.series;
}

let tick_ms t = t.tick
let depth t = t.depth
let shedding t = t.shedding

(* A tally of its own, listed in the registry as [name{labels}]. *)
let tally metrics name labels =
  Simkit.Trace.counter_cell_of (fun () ->
      let r = ref 0 in
      Option.iter (fun m -> Simkit.Metrics.bind_counter m name ~labels r) metrics;
      r)

let create ~engine ?metrics ?timeseries ?recorder ?on_drain config =
  validate config;
  let ts =
    match timeseries with
    | Some ts -> ts
    | None -> Simkit.Timeseries.create ~window_ms:500.0 ()
  in
  let monitor =
    match config.policy with
    | Slo_shed { spec; _ } -> Some (Simkit.Slo.monitor [ spec ])
    | Drop_tail | Deadline _ -> None
  in
  {
    engine;
    config;
    metrics;
    ts;
    recorder;
    on_drain;
    queue = Queue.create ();
    depth = 0;
    max_depth = 0;
    submitted = tally metrics "admission_submitted_total" [];
    admitted = tally metrics "admission_admitted_total" [];
    sheds =
      List.map
        (fun reason -> (reason, tally metrics "admission_shed_total" [ ("reason", reason) ]))
        [ "deadline"; "queue_full"; "slo" ];
    depth_gauge = None;
    wait =
      Option.map
        (fun m ->
          Simkit.Trace.stream_cell_of (fun () ->
              Simkit.Metrics.stream_ref m wait_series_name ~labels:[]))
        metrics;
    drains = 0;
    drain_armed = false;
    monitor;
    shedding = false;
    poll_armed = false;
    opened = tally metrics "admission_slo_transitions_total" [ ("edge", "breach") ];
    closed = tally metrics "admission_slo_transitions_total" [ ("edge", "clear") ];
    tick = 1000.0 *. float_of_int config.batch /. config.service_rate_per_s;
    wait_series = Simkit.Timeseries.series ts wait_series_name;
    depth_series = Simkit.Timeseries.series ts depth_series_name;
  }

let observe_depth t ~now =
  let depth = float_of_int t.depth in
  Simkit.Timeseries.observe_series t.ts t.depth_series ~now depth;
  match (t.depth_gauge, t.metrics) with
  | Some g, _ -> g.value <- depth
  | None, Some m ->
      let g = Simkit.Metrics.gauge_ref m depth_series_name ~labels:[] in
      t.depth_gauge <- Some g;
      g.value <- depth
  | None, None -> ()

let do_shed t req ~reason =
  Simkit.Trace.cell_incr (List.assoc reason t.sheds);
  req.shed ~reason

(* One drain tick: serve the oldest [batch] requests at the current engine
   time.  Deadline-expired entries are discarded without consuming a batch
   slot — the slot goes to the next still-fresh request, which is the point
   of expiry (never spend capacity on work nobody is waiting for). *)
let rec drain t () =
  t.drain_armed <- false;
  t.drains <- t.drains + 1;
  let now = Simkit.Engine.now t.engine in
  let served = ref 0 in
  while !served < t.config.batch && t.depth > 0 do
    let req = Queue.pop t.queue in
    t.depth <- t.depth - 1;
    let waited = now -. req.submitted_at in
    match t.config.policy with
    | Deadline { max_wait_ms } when waited > max_wait_ms -> do_shed t req ~reason:"deadline"
    | _ ->
        Simkit.Timeseries.observe_series t.ts t.wait_series ~now waited;
        Simkit.Trace.cell_incr t.admitted;
        (match t.wait with Some c -> Simkit.Trace.cell_observe c waited | None -> ());
        incr served;
        req.serve ~queued_ms:waited
  done;
  observe_depth t ~now;
  (match t.on_drain with Some f when !served > 0 -> f ~served:!served | _ -> ());
  if t.depth > 0 then arm_drain t

and arm_drain t =
  if not t.drain_armed then begin
    t.drain_armed <- true;
    Simkit.Engine.schedule t.engine ~delay:t.tick (drain t)
  end

(* A shed-state edge: counted, and recorded in the flight recorder. *)
let record_transition t ~now (st : Simkit.Slo.status) ~opening =
  Simkit.Trace.cell_incr (if opening then t.opened else t.closed);
  match t.recorder with
  | None -> ()
  | Some r ->
      Simkit.Flight_recorder.record r ~ts:now ~kind:"admission"
        ~args:
          [
            ("burn_rate", Simkit.Span.Float st.burn_rate);
            ("depth", Simkit.Span.Int t.depth);
          ]
        ((if opening then "shed open: " else "shed close: ") ^ st.spec.name)

(* The SLO poll keeps its own heartbeat: each poll refreshes the control
   signal with the age of the queue head (0 on an idle queue), so the
   monitor keeps seeing new windows — and can clear — even while every
   arrival is being shed and nothing is dequeued. *)
let rec poll t () =
  t.poll_armed <- false;
  match t.monitor with
  | None -> ()
  | Some monitor ->
      let now = Simkit.Engine.now t.engine in
      let head_age =
        match Queue.peek_opt t.queue with
        | Some req -> now -. req.submitted_at
        | None -> 0.0
      in
      Simkit.Timeseries.observe_series t.ts t.wait_series ~now head_age;
      ignore
        (Simkit.Slo.poll
           ~on_breach:(fun st ->
             t.shedding <- true;
             record_transition t ~now st ~opening:true)
           ~on_clear:(fun st ->
             t.shedding <- false;
             record_transition t ~now st ~opening:false)
           monitor t.ts);
      if t.depth > 0 || t.shedding then arm_poll t

and arm_poll t =
  match t.config.policy with
  | Slo_shed { poll_every_ms; _ } ->
      if not t.poll_armed then begin
        t.poll_armed <- true;
        Simkit.Engine.schedule t.engine ~delay:poll_every_ms (poll t)
      end
  | Drop_tail | Deadline _ -> ()

let submit t ~serve ~shed =
  let now = Simkit.Engine.now t.engine in
  Simkit.Trace.cell_incr t.submitted;
  let req = { submitted_at = now; serve; shed } in
  arm_poll t;
  if t.shedding then do_shed t req ~reason:"slo"
  else if t.depth >= t.config.capacity then do_shed t req ~reason:"queue_full"
  else begin
    Queue.push req t.queue;
    t.depth <- t.depth + 1;
    if t.depth > t.max_depth then t.max_depth <- t.depth;
    observe_depth t ~now;
    arm_drain t
  end

type totals = {
  submitted : int;
  admitted : int;
  shed : (string * int) list;
  shed_total : int;
  max_depth : int;
  drains : int;
  slo_sheds_opened : int;
}

let totals t =
  let shed =
    List.filter_map
      (fun (reason, tally) ->
        match Simkit.Trace.cell_count tally with 0 -> None | n -> Some (reason, n))
      t.sheds
  in
  {
    submitted = Simkit.Trace.cell_count t.submitted;
    admitted = Simkit.Trace.cell_count t.admitted;
    shed;
    shed_total = List.fold_left (fun acc (_, n) -> acc + n) 0 shed;
    max_depth = t.max_depth;
    drains = t.drains;
    slo_sheds_opened = Simkit.Trace.cell_count t.opened;
  }
