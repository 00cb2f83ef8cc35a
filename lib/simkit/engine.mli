(** Discrete-event simulation engine (the PeerSim replacement's heart).

    Events are closures scheduled at absolute simulated times (milliseconds,
    [float]).  Equal-time events fire in schedule (FIFO) order — the queue
    is one heap ordered by (time, schedule sequence number) — which makes
    whole runs deterministic given deterministic event bodies.  Events may
    schedule further events, including at the current time: those run
    after every event already due then.  The queue drops its reference to
    an event's closure once the event has run. *)

type t

val create : unit -> t
(** A fresh engine at time 0. *)

val now : t -> float
(** Current simulated time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument on a negative delay. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; @raise Invalid_argument when [time] is in the
    past. *)

val run : ?until:float -> t -> unit
(** Drain the event queue in time order.  With [until], stops once the next
    event would fire strictly after that time (the clock then reads
    [until]). *)

val step : t -> bool
(** Execute exactly the next event; [false] when the queue was empty. *)

val pending : t -> int
(** Events still queued. *)

val processed : t -> int
(** Events executed so far. *)
