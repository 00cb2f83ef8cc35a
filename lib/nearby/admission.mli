(** Bounded admission control in front of the management tier.

    An open-loop arrival process can outrun the registration service; an
    unbounded queue then converts overload into unbounded queueing delay.
    This module is the guard: a FIFO queue of bounded [capacity] drained in
    batches at a configured service rate on the engine clock, with a
    pluggable shedding policy deciding which requests never reach the
    server:

    - {!Drop_tail}: reject only when the queue is full (reason
      ["queue_full"]).  Admitted p99 grows to the full queue drain time.
    - {!Deadline}: additionally expire requests at dequeue whose queueing
      delay already exceeds [max_wait_ms] (reason ["deadline"]) — stale
      work is dropped rather than served late.
    - {!Slo_shed}: a {!Simkit.Slo} burn-rate monitor over the
      queueing-delay series; while in breach, incoming requests are shed
      (reason ["slo"]).  Hysteresis is the burn rate's: clearing requires
      enough clean windows inside the lookback to drop below the
      threshold, so the shedder does not flap on a single good window.

    Served requests get their queueing delay ([queued_ms], measured
    submit-to-dequeue on the engine clock) passed to their [serve]
    callback; shed requests get the reason.  Exactly one of the two fires
    per submit.

    Observability: with a [metrics] registry, the queue emits gauge
    [admission_queue_depth], counters [admission_submitted_total],
    [admission_admitted_total], [admission_shed_total{reason=...}] and
    [admission_slo_transitions_total{edge=...}], plus the pure dequeue
    wait stream [admission_wait_ms]; its counters are the cells {!totals}
    reads ({!Simkit.Metrics.bind_counter}).  The timeseries carries windowed
    [admission_queue_depth] and [admission_wait_ms] series — the latter is
    the {e control signal}: dequeue waits plus, for {!Slo_shed}, a
    poll-time sample of the queue head's age (0 when idle) so the monitor
    sees fresh windows while requests wait or the queue sits empty.
    Shed-state transitions land in the flight recorder (kind
    ["admission"]). *)

type policy =
  | Drop_tail
  | Deadline of { max_wait_ms : float }
  | Slo_shed of { spec : Simkit.Slo.spec; poll_every_ms : float }

val slo_shed :
  ?lookback:int ->
  ?burn_threshold:float ->
  ?poll_every_ms:float ->
  wait_p99_limit_ms:float ->
  unit ->
  policy
(** The standard SLO shedder: p99 of {!wait_series_name} capped at
    [wait_p99_limit_ms], defaults [lookback = 4], [burn_threshold = 0.5],
    [poll_every_ms = 100.0]. *)

type config = {
  capacity : int;  (** Queue slots; submits beyond shed as ["queue_full"]. *)
  service_rate_per_s : float;  (** Drain throughput. *)
  batch : int;  (** Requests served per drain tick. *)
  policy : policy;
}

val validate : config -> unit
(** @raise Invalid_argument on non-positive capacity, rate, batch or
    deadline, or a non-positive poll period. *)

type t

val create :
  engine:Simkit.Engine.t ->
  ?metrics:Simkit.Metrics.t ->
  ?timeseries:Simkit.Timeseries.t ->
  ?recorder:Simkit.Flight_recorder.t ->
  ?on_drain:(served:int -> unit) ->
  config ->
  t
(** [timeseries] (default: a private 500 ms-window ring) receives the
    windowed depth/wait series and is what an {!Slo_shed} policy is judged
    on — pass the experiment's own ring to share windows with its SLOs.
    [on_drain ~served] fires after each drain tick that served at least
    one request, once all the tick's [serve] callbacks have run — the hook
    batch consumers (one [register_measured_batch] per tick) attach to. *)

val submit : t -> serve:(queued_ms:float -> unit) -> shed:(reason:string -> unit) -> unit
(** Offer one request at the current engine time. *)

val depth : t -> int
val shedding : t -> bool
(** Whether an {!Slo_shed} policy is currently rejecting arrivals. *)

val tick_ms : t -> float
(** The drain period, [1000 * batch / service_rate_per_s] — also the
    minimum latency a request spends in the queue. *)

type totals = {
  submitted : int;
  admitted : int;
  shed : (string * int) list;  (** Per reason, alphabetical. *)
  shed_total : int;
  max_depth : int;
  drains : int;
  slo_sheds_opened : int;  (** Breach edges seen by an {!Slo_shed} policy. *)
}

val totals : t -> totals

val wait_series_name : string
(** ["admission_wait_ms"]. *)

val depth_series_name : string
(** ["admission_queue_depth"]. *)
