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
   resolved at its first write, where it is also listed in the labeled
   registry. *)
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

type t = {
  config : config;
  budget : float;  (* [worst_case_ms config]: how long a call may run *)
  legs : float array;  (* the one-way delays out to the attempt's target and back *)
  transport : Transport.t;
  rng : Prelude.Prng.t option;
  trace : Trace.t;
  cells : cells;
  recorder : Flight_recorder.t option;
  spans : Span.sink;
}

let create ?(config = default_config) ?rng ?labeled ?recorder ?(spans = Span.noop) transport =
  validate_config config;
  let trace = Trace.create () in
  let cell = Trace.counter_cell trace in
  (* One [rpc_outcomes] series per outcome, so a fleet dashboard reads the
     ok/timeout mix without knowing each flat counter name. *)
  let outcome name label =
    Trace.counter_cell_of (fun () ->
        let r = Trace.counter_ref trace name in
        Option.iter
          (fun m -> Metrics.bind_counter m "rpc_outcomes" ~labels:[ ("outcome", label) ] r)
          labeled;
        r)
  in
  let cells =
    {
      calls = cell "rpc_calls";
      attempts = cell "rpc_attempts";
      retries = cell "rpc_retries";
      no_target = outcome "rpc_no_target" "no_target";
      unserved = outcome "rpc_unserved" "unserved";
      ok_count = outcome "rpc_ok" "ok";
      latency =
        Trace.stream_cell_of (fun () ->
            let s = Trace.stream_ref trace "rpc_latency_ms" in
            Option.iter
              (fun m -> Metrics.bind_stream m "rpc_latency_ms" ~labels:[ ("outcome", "ok") ] s)
              labeled;
            s);
      timeouts = outcome "rpc_timeouts" "timeout";
      gave_up = outcome "rpc_gave_up" "gave_up";
    }
  in
  {
    config;
    budget = worst_case_ms config;
    legs = [| 0.0; 0.0 |];
    transport;
    rng;
    trace;
    cells;
    recorder;
    spans;
  }

let trace t = t.trace
let spans t = t.spans
let config t = t.config
let engine t = Transport.engine t.transport

(* The deadline of an attempt to [target] ([-1] for none): twice the
   modeled round trip, at least 1 ms and at most the ceiling; the whole
   ceiling without a target.  Routes do not change, so the deadline is
   read again at the attempt's timeout rather than kept as a boxed float.
   Inlined, so the float stays unboxed. *)
let[@inline] deadline_ms t ~src ~target =
  if target < 0 then t.config.timeout_ms
  else begin
    Transport.one_way_delay_into t.transport ~src ~dst:target t.legs 0;
    Transport.one_way_delay_into t.transport ~src:target ~dst:src t.legs 1;
    let d = 2.0 *. (t.legs.(0) +. t.legs.(1)) in
    if d >= t.config.timeout_ms then t.config.timeout_ms else if d < 1.0 then 1.0 else d
  end

(* Backoff before attempt [n+1] after attempt [n], whose deadline was
   [deadline_ms], timed out: min(base, deadline) * multiplier^(n-1), spread
   by +-jitter_frac so a burst of calls that timed out together does not
   retry in lockstep (the thundering-herd avoidance every retry loop
   needs).  A lost packet costs about a round trip, so waiting longer
   than the attempt's own deadline buys nothing against independent
   losses; [base] caps it for slow targets and targetless attempts.
   Inlined into [timed_out], so the deadline is not boxed. *)
let[@inline] backoff_ms t ~attempt ~deadline_ms =
  let c = t.config in
  let base = if deadline_ms < c.backoff_base_ms then deadline_ms else c.backoff_base_ms in
  let raw = base *. (c.backoff_multiplier ** float_of_int (attempt - 1)) in
  match t.rng with
  | Some rng when c.jitter_frac > 0.0 ->
      let spread = c.jitter_frac *. ((2.0 *. Prelude.Prng.unit_float rng) -. 1.0) in
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
  mutable request_parts : (string * int) list;
      (* the first attempt's parts, relabeled as one "retry" part by the
         second attempt for it and every later one *)
  reply_parts : 'a -> (string * int) list;
  handle : dst:Topology.Graph.node -> 'a option;
  on_reply : 'a -> unit;
  on_give_up : unit -> unit;
  started_at : float;
  mutable target : Topology.Graph.node;
      (* the current attempt's target, [-1] for none: its deadline is read
         again at its timeout.  Here, not in the timer, so an event still
         queued for a settled call holds no more than before. *)
  timer : 'a timer;
  expire : unit -> unit;  (* [fire timer], queued after every attempt and every backoff *)
}

(* What the call's queued event -- an attempt's deadline, or the backoff
   after it -- holds: the call while it is unsettled, and the attempt the
   event belongs to.  Settling empties [live], so an event still queued
   for a settled call holds this cell alone, not the callbacks and what
   they capture.  The first reply to arrive settles the call; later
   replies and stale events find it empty.  Attempts run one after
   another, so one cell serves them all, and an unsettled call has one
   event queued: [n] is the attempt whose deadline it is, or minus the
   attempt whose backoff it is. *)
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
  c.timer.n <- n;
  c.timer.span <- span;
  match c.dst ~attempt:n with
  | None ->
      (* No live target known right now; waiting out the whole ceiling
         doubles as a wait for one to come back. *)
      c.target <- -1;
      Trace.cell_incr t.cells.no_target;
      if Option.is_some t.recorder then
        record t ~args:[ ("src", Span.Int c.src); ("attempt", Span.Int n) ] "no_target";
      close t span "no_target";
      Engine.schedule (engine t) ~delay:t.config.timeout_ms c.expire
  | Some target ->
      c.target <- target;
      if Span.enabled t.spans then Span.add_arg span "target" (Span.Int target);
      (* Wire attribution: attempt 1 charges the caller's kind breakdown;
         every later attempt is overhead the retry loop added, so its bytes
         are relabeled wholesale as kind "retry". *)
      if n = 2 then
        c.request_parts <-
          [ ("retry", List.fold_left (fun acc (_, b) -> acc + b) 0 c.request_parts) ];
      Transport.send_parts ~dir:"request" t.transport ~src:c.src ~dst:target
        ~parts:c.request_parts (fun () -> serve c ~n ~target span);
      (* Transport jitter stretches a leg by 5% at most, so a reply that
         is not lost always beats the deadline.  At the ceiling, the
         config's own float is passed, not a fresh box. *)
      let deadline = deadline_ms t ~src:c.src ~target in
      if deadline >= t.config.timeout_ms then
        Engine.schedule (engine t) ~delay:t.config.timeout_ms c.expire
      else Engine.schedule (engine t) ~delay:deadline c.expire

(* The timer's queued event has fired: an attempt's deadline, or the end
   of the backoff after one. *)
and fire timer =
  if timer.n > 0 then timed_out timer
  else match timer.live with Some c -> attempt c (1 - timer.n) | None -> ()

(* The deadline of the timer's attempt has passed. *)
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
      if Option.is_some t.recorder then
        record t ~args:[ ("src", Span.Int c.src); ("attempt", Span.Int n) ] "timeout";
      close t timer.span "timeout";
      (* The budget has room for one more attempt at the full ceiling
         while it starts by [last].  Retry after the backoff if that
         attempt still does; if not, make one last attempt at [last]
         itself.  So a call gives up only after an attempt whose deadline
         passes [last], one sent less than [timeout_ms] before it -- a
         loss burst that ends earlier cannot use the call up -- and no
         call outlives [worst_case_ms], however short its deadlines. *)
      let deadline = deadline_ms t ~src:c.src ~target:c.target in
      let e = engine t and backoff = backoff_ms t ~attempt:n ~deadline_ms:deadline in
      let now = Engine.now e and last = c.started_at +. t.budget -. t.config.timeout_ms in
      if now <= last then begin
        timer.n <- -n;
        if now +. backoff <= last then Engine.schedule e ~delay:backoff c.expire
        else Engine.schedule e ~delay:(last -. now) c.expire
      end
      else if settle timer then begin
        Trace.cell_incr t.cells.gave_up;
        if Option.is_some t.recorder then record t ~args:[ ("src", Span.Int c.src) ] "gave_up";
        c.on_give_up ()
      end

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
      target = -1;
      timer;
      (* Built here, outside the recursive functions, it holds [timer]
         alone. *)
      expire = (fun () -> fire timer);
    }
  in
  timer.live <- Some c;
  attempt c 1
