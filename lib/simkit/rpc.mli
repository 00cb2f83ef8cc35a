(** Resilient request/response over {!Transport}.

    {!Transport.rpc} is fire-and-forget: one lost leg and the caller's
    handler never runs.  This layer adds the client-side state machine a
    real deployment needs — per-call timeout, bounded retries with
    exponentially growing jittered backoff, and per-attempt target
    re-selection (so a retry can fail over to another server replica) —
    and counts every outcome into a {!Trace}.

    Per-call life cycle:
    + attempt [n] asks [dst ~attempt:n] for a target and sends the request;
    + if the reply arrives within the attempt's deadline, the call
      {e settles}: [on_reply] fires exactly once, even if slower duplicate
      replies from earlier attempts arrive later.  The deadline is twice
      the modeled round trip to the attempt's target
      ({!Transport.one_way_delay} out and back), at least 1 ms and at most
      [timeout_ms]; an attempt without a target waits the whole
      [timeout_ms].  The client is taken to know its modeled delay to
      each target, as failover's ranking of replicas already does, and
      transport jitter stretches a leg by at most 5%, so a reply that is
      not lost always beats its deadline;
    + on timeout, wait [min(backoff_base_ms, deadline) * multiplier^(n-1)]
      (spread by [+-jitter_frac]), where [deadline] is the attempt's own,
      and retry -- if one more attempt at the full
      [timeout_ms], after that backoff, would still end within
      {!worst_case_ms} of the call's start.  If it would not, but one
      started right away still would, wait only until the last moment
      such an attempt fits and make it;
    + otherwise [on_give_up] fires -- a call {e always} terminates, within
      {!worst_case_ms}, which is what fixes the silent-stall joins under
      loss.

    The retry budget is the call's time, not a count of attempts: a lost
    packet costs a round trip or two, not [timeout_ms], so a call may make
    more than [max_attempts] attempts inside the time [max_attempts]
    full-length attempts would take, and a loss burst cannot use it up
    faster than its backoffs grow.  [max_attempts = 1] still means one
    attempt.

    Retries re-execute the server-side [handle] when both the original
    request and its retry get through, so handlers must be idempotent. *)

type t

type config = {
  timeout_ms : float;  (** Ceiling of an attempt's reply deadline. *)
  max_attempts : int;
      (** Sizes the call's budget, {!worst_case_ms}: the time this many
          attempts (first try included) would take at the ceiling. *)
  backoff_base_ms : float;
      (** Ceiling of the wait after the first timeout: the wait is the
          timed-out attempt's deadline when that is shorter, so a lost
          packet to a nearby target costs about a round trip, and an
          attempt without a target (whose deadline is [timeout_ms])
          waits this. *)
  backoff_multiplier : float;  (** Growth factor per further timeout. *)
  jitter_frac : float;
      (** Uniform spread of each backoff in [[1-j, 1+j]]; needs the [rng]
          passed to {!create} to take effect. *)
}

val default_config : config
(** 1 s ceiling, a budget of 4 attempts, a backoff of the attempt's
    deadline up to 200 ms doubling per retry, 20% jitter. *)

val worst_case_ms : config -> float
(** A call's budget, and so the upper bound on its time to settle or give
    up: [max_attempts] timeouts at the ceiling plus the first
    [max_attempts - 1] backoffs at their largest jitter
    ([1 + jitter_frac]).  Experiments size their horizons with it so no
    call is still in flight when the run stops. *)

val create :
  ?config:config -> ?rng:Prelude.Prng.t -> ?labeled:Metrics.t ->
  ?recorder:Flight_recorder.t -> ?spans:Span.sink -> Transport.t -> t
(** [recorder] receives one ["rpc"]-kind event per notable outcome
    (timeout, failed-over attempt without a target, unserved request,
    settled reply, give-up), stamped with the engine clock.  [spans]
    receives one ["rpc_attempt"] span per attempt (see {!call}); default
    {!Span.noop}.  [labeled] lists {!trace}'s outcome counters as one
    [rpc_outcomes{outcome="ok"|"timeout"|"no_target"|"unserved"|
    "gave_up"}] series each, and its latency stream as
    [rpc_latency_ms{outcome="ok"}]: the same cells, not copies.
    @raise Invalid_argument on a non-positive timeout, [max_attempts < 1],
    negative backoff, multiplier below 1 or jitter outside [0, 1). *)

val call :
  ?parent:Span.context ->
  t ->
  src:Topology.Graph.node ->
  dst:(attempt:int -> Topology.Graph.node option) ->
  request_parts:(string * int) list ->
  reply_parts:('a -> (string * int) list) ->
  handle:(dst:Topology.Graph.node -> 'a option) ->
  on_reply:('a -> unit) ->
  on_give_up:(unit -> unit) ->
  unit
(** [dst ~attempt] picks the target for each attempt (1-based) — return a
    different replica on retries for client-side failover, or [None] when
    no target is believed live (the attempt is skipped, and its wait of
    [timeout_ms] and the backoff after it double as a wait for a target to
    return).  [handle ~dst] runs at the target when the request
    arrives: [Some v] sends [v] back in a reply, [None] means the server
    was down and the request died unanswered.  Exactly one of [on_reply] /
    [on_give_up] fires per call.

    With a span sink attached, each attempt becomes one ["rpc_attempt"]
    span — a child of [parent] when given, so retries and failovers show
    as siblings in one causal tree — ambient while [handle] runs, and
    annotated with the attempt index, the per-attempt target and the
    outcome (["ok"] / ["timeout"] / ["no_target"] / ["superseded"] for an
    attempt overtaken by another's late reply).

    {b Parts are the only size input.}  A message's size is the sum of its
    [(kind, bytes)] parts, charged per kind: [request_parts] for the first
    attempt, [reply_parts v] for a reply, each sized once by the caller.
    Later attempts charge their request's total to kind ["retry"], so retry
    overhead stays separable from protocol cost.  Directions are
    ["request"] / ["reply"].

    Settling (the first reply, or the give-up) releases the callbacks and
    what they capture, though the call's last timeout may stay queued. *)

val backoff_ms : t -> attempt:int -> deadline_ms:float -> float
(** The (jittered) backoff charged after attempt [attempt], whose deadline
    was [deadline_ms], times out:
    [min(backoff_base_ms, deadline_ms) * backoff_multiplier^(attempt-1)],
    spread by [+-jitter_frac] — consumes a draw from the rng when jitter is
    active.  Never more than the configured backoff, so {!worst_case_ms}
    still bounds every call. *)

val trace : t -> Trace.t
(** Outcome counters: ["rpc_calls"], ["rpc_attempts"], ["rpc_retries"],
    ["rpc_timeouts"], ["rpc_ok"], ["rpc_gave_up"], ["rpc_no_target"]
    (attempts skipped for want of a live target), ["rpc_unserved"]
    (requests that reached a down server); stream ["rpc_latency_ms"]
    (call start to settled reply, simulated ms). *)

val spans : t -> Span.sink
(** The sink attempt spans go to ({!Span.noop} unless one was passed to
    {!create}); callers share it to keep one id space per trace file. *)

val config : t -> config
val engine : t -> Engine.t
