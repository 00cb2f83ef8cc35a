type config = {
  timeout_ms : float;
  max_attempts : int;
  backoff_base_ms : float;
  backoff_multiplier : float;
  jitter_frac : float;
}

let default_config =
  {
    timeout_ms = 1_000.0;
    max_attempts = 4;
    backoff_base_ms = 200.0;
    backoff_multiplier = 2.0;
    jitter_frac = 0.2;
  }

let validate_config c =
  if c.timeout_ms <= 0.0 then invalid_arg "Rpc: timeout_ms must be positive";
  if c.max_attempts < 1 then invalid_arg "Rpc: max_attempts must be at least 1";
  if c.backoff_base_ms < 0.0 then invalid_arg "Rpc: backoff_base_ms must be non-negative";
  if c.backoff_multiplier < 1.0 then invalid_arg "Rpc: backoff_multiplier must be >= 1";
  if c.jitter_frac < 0.0 || c.jitter_frac >= 1.0 then
    invalid_arg "Rpc: jitter_frac outside [0, 1)"

(* Every attempt times out and every backoff draws its largest jitter. *)
let worst_case_ms c =
  let backoffs = ref 0.0 in
  for a = 1 to c.max_attempts - 1 do
    backoffs :=
      !backoffs
      +. (c.backoff_base_ms *. (c.backoff_multiplier ** float_of_int (a - 1)) *. (1.0 +. c.jitter_frac))
  done;
  (float_of_int c.max_attempts *. c.timeout_ms) +. !backoffs

(* The trace cells of the outcome counters and the latency stream, each
   resolved at its first write. *)
type cells = {
  calls : Trace.counter_cell;
  attempts : Trace.counter_cell;
  retries : Trace.counter_cell;
  no_target : Trace.counter_cell;
  unserved : Trace.counter_cell;
  ok_count : Trace.counter_cell;
  latency : Trace.stream_cell;
  timeouts : Trace.counter_cell;
  gave_up : Trace.counter_cell;
}

(* The labeled series every successful call writes; a cell keeps the
   series its first write resolved to. *)
type ok_series = { outcome : Trace.counter_cell; ok_latency : Trace.stream_cell }

type t = {
  config : config;
  transport : Transport.t;
  rng : Prelude.Prng.t option;
  trace : Trace.t;
  cells : cells;
  labeled : Metrics.t option;
  labeled_ok : ok_series option;
  recorder : Flight_recorder.t option;
  spans : Span.sink;
}

let ok = [ ("outcome", "ok") ]

let create ?(config = default_config) ?rng ?trace ?labeled ?recorder
    ?(spans = Span.noop) transport =
  validate_config config;
  let trace = match trace with Some t -> t | None -> Trace.create () in
  let cell = Trace.counter_cell trace in
  let cells =
    {
      calls = cell "rpc_calls";
      attempts = cell "rpc_attempts";
      retries = cell "rpc_retries";
      no_target = cell "rpc_no_target";
      unserved = cell "rpc_unserved";
      ok_count = cell "rpc_ok";
      latency = Trace.stream_cell trace "rpc_latency_ms";
      timeouts = cell "rpc_timeouts";
      gave_up = cell "rpc_gave_up";
    }
  in
  let labeled_ok =
    Option.map
      (fun m ->
        {
          outcome = Trace.counter_cell_of (fun () -> Metrics.counter_ref m "rpc_outcomes" ~labels:ok);
          ok_latency =
            Trace.stream_cell_of (fun () -> Metrics.stream_ref m "rpc_latency_ms" ~labels:ok);
        })
      labeled
  in
  { config; transport; rng; trace; cells; labeled; labeled_ok; recorder; spans }

(* Dimensional mirror of the outcome counters: one `rpc_outcomes` series
   per outcome label, so a fleet dashboard reads the ok/timeout mix
   without knowing each flat counter name.  Call sites pass constant label
   lists, so a write builds none. *)
let labeled_outcome t labels =
  match t.labeled with None -> () | Some m -> Metrics.incr m "rpc_outcomes" ~labels

let trace t = t.trace
let spans t = t.spans
let config t = t.config
let engine t = Transport.engine t.transport

(* Backoff before attempt [n+1] after attempt [n] timed out:
   base * multiplier^(n-1), spread by +-jitter_frac so a burst of calls that
   timed out together does not retry in lockstep (the thundering-herd
   avoidance every retry loop needs). *)
let backoff_ms t ~attempt =
  let raw =
    t.config.backoff_base_ms *. (t.config.backoff_multiplier ** float_of_int (attempt - 1))
  in
  match t.rng with
  | Some rng when t.config.jitter_frac > 0.0 ->
      let spread = t.config.jitter_frac *. ((2.0 *. Prelude.Prng.unit_float rng) -. 1.0) in
      raw *. (1.0 +. spread)
  | _ -> raw

(* Flight-recorder taps: every notable outcome leaves one event, stamped
   with the engine clock, so a post-breach dump shows which calls were
   timing out, failing over or dying against a downed server.  Call sites
   build the args only when a recorder is attached. *)
let record t ~args detail =
  match t.recorder with
  | None -> ()
  | Some r -> Flight_recorder.record r ~ts:(Engine.now (engine t)) ~kind:"rpc" ~args detail

let close t span outcome =
  if Span.enabled t.spans then Span.finish ~args:[ ("outcome", Span.Str outcome) ] span

(* One call: what its attempts share, in one record, driven by the
   top-level functions below. *)
type 'a call = {
  rpc : t;
  parent : Span.context option;
  src : Topology.Graph.node;
  dst : attempt:int -> Topology.Graph.node option;
  request_parts : (string * int) list;
  reply_parts : 'a -> (string * int) list;
  handle : dst:Topology.Graph.node -> 'a option;
  on_reply : 'a -> unit;
  on_give_up : unit -> unit;
  started_at : float;
  timer : 'a timer;
  expire : unit -> unit;  (* [timed_out timer], queued after every attempt *)
}

(* What the call's queued timeout holds: the call while it is unsettled,
   and the attempt that timeout belongs to.  Settling empties [live], so
   a timeout still queued for a settled call holds this cell alone, not
   the callbacks and what they capture.  The first reply to arrive
   settles the call; later replies and stale timeouts find it empty.
   Attempts run one after another, so one cell serves them all. *)
and 'a timer = { mutable live : 'a call option; mutable n : int; mutable span : Span.span }

let settle timer =
  let unsettled = Option.is_some timer.live in
  timer.live <- None;
  unsettled

(* A reply to attempt [n] has landed. *)
let replied c ~n ~target span v =
  if settle c.timer then begin
    let t = c.rpc in
    let latency = Engine.now (engine t) -. c.started_at in
    Trace.cell_incr t.cells.ok_count;
    Trace.cell_observe t.cells.latency latency;
    (match t.labeled_ok with
    | Some s ->
        Trace.cell_incr s.outcome;
        Trace.cell_observe s.ok_latency latency
    | None -> ());
    if Option.is_some t.recorder then
      record t "ok"
        ~args:
          [ ("src", Span.Int c.src); ("dst", Span.Int target); ("attempts", Span.Int n);
            ("latency_ms", Span.Float latency) ];
    close t span "ok";
    c.on_reply v
  end

(* Attempt [n]'s request has reached [target].  The attempt's context is
   ambient while the server-side handler runs, so its instrumentation
   parents under this exact attempt without signature threading.  A
   request still in flight when the call settles is served all the
   same. *)
let serve c ~n ~target span =
  let t = c.rpc in
  match
    if Span.enabled t.spans then
      Span.with_context t.spans (Span.context_of span) (fun () -> c.handle ~dst:target)
    else c.handle ~dst:target
  with
  | None ->
      (* The server was down when the request arrived: it is consumed
         without a reply, exactly like a lost one. *)
      Trace.cell_incr t.cells.unserved;
      labeled_outcome t [ ("outcome", "unserved") ];
      if Option.is_some t.recorder then
        record t ~args:[ ("src", Span.Int c.src); ("dst", Span.Int target) ] "unserved"
  | Some v ->
      Transport.send_parts ~dir:"reply" t.transport ~src:target ~dst:c.src ~parts:(c.reply_parts v)
        (fun () -> replied c ~n ~target span v)

let rec attempt c n =
  let t = c.rpc in
  Trace.cell_incr t.cells.attempts;
  if n > 1 then Trace.cell_incr t.cells.retries;
  (* One child span per attempt: the retry index and per-attempt target
     make client-side failover visible as sibling spans of one trace. *)
  let span =
    if Span.enabled t.spans then
      Span.start_span t.spans ~name:"rpc_attempt" ?parent:c.parent ~tid:c.src
        [ ("attempt", Span.Int n); ("src", Span.Int c.src) ]
    else Span.none
  in
  (match c.dst ~attempt:n with
  | None ->
      (* No live target known right now; the backoff below doubles as a
         wait for one to come back. *)
      Trace.cell_incr t.cells.no_target;
      labeled_outcome t [ ("outcome", "no_target") ];
      if Option.is_some t.recorder then
        record t ~args:[ ("src", Span.Int c.src); ("attempt", Span.Int n) ] "no_target";
      close t span "no_target"
  | Some target ->
      if Span.enabled t.spans then Span.add_arg span "target" (Span.Int target);
      (* Wire attribution: attempt 1 charges the caller's kind breakdown;
         every later attempt is overhead the retry loop added, so its bytes
         are relabeled wholesale as kind "retry". *)
      let parts =
        if n = 1 then c.request_parts
        else [ ("retry", List.fold_left (fun acc (_, b) -> acc + b) 0 c.request_parts) ]
      in
      Transport.send_parts ~dir:"request" t.transport ~src:c.src ~dst:target ~parts (fun () ->
          serve c ~n ~target span));
  c.timer.n <- n;
  c.timer.span <- span;
  Engine.schedule (engine t) ~delay:t.config.timeout_ms c.expire

(* The timeout of the timer's attempt has fired. *)
and timed_out timer =
  match timer.live with
  | None ->
      (* The call settled through another attempt while this one was in
         flight; [finish] is idempotent, so this only closes spans that
         were left open (e.g. an unserved request).  Untraced, the span
         is {!Span.none}, already finished. *)
      Span.finish ~args:[ ("outcome", Span.Str "superseded") ] timer.span
  | Some c ->
      let t = c.rpc and n = timer.n in
      Trace.cell_incr t.cells.timeouts;
      labeled_outcome t [ ("outcome", "timeout") ];
      if Option.is_some t.recorder then
        record t ~args:[ ("src", Span.Int c.src); ("attempt", Span.Int n) ] "timeout";
      close t timer.span "timeout";
      if n < t.config.max_attempts then
        Engine.schedule (engine t) ~delay:(backoff_ms t ~attempt:n) (fun () -> retry timer)
      else if settle timer then begin
        Trace.cell_incr t.cells.gave_up;
        labeled_outcome t [ ("outcome", "gave_up") ];
        if Option.is_some t.recorder then record t ~args:[ ("src", Span.Int c.src) ] "gave_up";
        c.on_give_up ()
      end

(* The backoff after the timer's attempt is over: try again, unless a late
   reply settled the call meanwhile. *)
and retry timer = match timer.live with Some c -> attempt c (timer.n + 1) | None -> ()

let call ?parent t ~src ~dst ~request_parts ~reply_parts ~handle ~on_reply ~on_give_up =
  Trace.cell_incr t.cells.calls;
  let timer = { live = None; n = 0; span = Span.none } in
  let c =
    {
      rpc = t;
      parent;
      src;
      dst;
      request_parts;
      reply_parts;
      handle;
      on_reply;
      on_give_up;
      started_at = Engine.now (engine t);
      timer;
      (* Built here, outside the recursive functions, it holds [timer]
         alone. *)
      expire = (fun () -> timed_out timer);
    }
  in
  timer.live <- Some c;
  attempt c 1
