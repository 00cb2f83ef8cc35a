(** One run of the replicated join service: the harness behind
    {!Resilience_exp}, {!Wire_exp}, {!Health_exp} and {!Fleet_obs}.

    It owns what they share: the {!Workload} (8 landmarks), the
    Protocol → Rpc → Cluster stack over one transport, splitting the
    workload rng for the transport, then replica placement
    (medium-degree routers, client at [core.(0)]), then the RPC layer
    ({!Simkit.Rpc.default_config}); the fault schedule; the horizon;
    anti-entropy; the join arrivals; the settle step.  Each experiment
    adds its own instruments and polls and reads its result back.
    Deterministic in [config.seed]. *)

type config = {
  routers : int;
  peers : int;  (** One join per peer. *)
  k : int;
  replicas : int;
  arrival_window_ms : float;  (** Joins arrive uniformly in [0, window]. *)
  sync_period_ms : float;  (** Anti-entropy period. *)
  drain_ms : float;  (** Extra horizon for a queue in front of the service. *)
  seed : int;
}

val horizon : config -> float
(** [arrival_window_ms + drain_ms + Rpc.worst_case_ms + 3 sync periods +
    1 s]: every join has resolved, its slowest RPC included, and anti-entropy
    has run past the last fault. *)

val fault_window : config -> float * float
(** 25% to 60% of the arrival window, where loss bursts and partitions sit. *)

val timeseries : config -> window_ms:float -> Simkit.Timeseries.t
(** Sized so no window up to the {!horizon} is evicted. *)

type t = private {
  config : config;
  workload : Workload.t;
  engine : Simkit.Engine.t;
  transport : Simkit.Transport.t;
  replica_routers : Topology.Graph.node array;
  cluster : Nearby.Cluster.t;
  rpc : Simkit.Rpc.t;
  protocol : Nearby.Protocol.t;
  horizon : float;
  mutable completed : int;
  mutable failed : int;  (** Gave up or shed. *)
}

val create :
  ?spans:Simkit.Span.sink ->
  ?metrics:Simkit.Metrics.t ->
  ?recorder:Simkit.Flight_recorder.t ->
  ?rpc_recorder:Simkit.Flight_recorder.t ->
  ?timeseries:Simkit.Timeseries.t ->
  ?backend:(module Nearby.Registry_intf.S) ->
  ?base_loss:float ->
  ?fault:(t -> Simkit.Fault.t) ->
  config ->
  t
(** Build the stack, install [fault] (default none; it sees the built run,
    so it can aim at a replica's router) and start anti-entropy.  Nothing
    has executed yet.  [spans] goes to the cluster, the servers and the RPC
    layer, on the engine clock; [metrics] to the transport, the cluster and
    the RPC layer's labeled outcomes; [recorder] to the cluster and the
    fault schedule; [rpc_recorder] to the RPC layer; [timeseries] to the
    transport; [backend] to every server.  [base_loss] (default 0) is the
    loss probability outside any fault.
    @raise Invalid_argument when [replicas < 1]. *)

val every : t -> period_ms:float -> (unit -> unit) -> unit
(** Run [f] at every multiple of [period_ms] up to the horizon. *)

val arrivals :
  ?timeseries:Simkit.Timeseries.t ->
  ?admit:(serve:(unit -> unit) -> shed:(unit -> unit) -> unit) ->
  ?on_complete:(peer:int -> trace_id:int -> latency_ms:float -> (int * int) list -> unit) ->
  t ->
  unit
(** Schedule one join per peer at a uniform time in the arrival window,
    counting outcomes.  [admit] serves the join (default: at once) or sheds
    it.  [timeseries] gets ["join_started"], ["join_ms"] (from arrival),
    ["join_completed"] and ["join_failed"].  [on_complete] also sees the
    trace id (0 untraced) and the neighbor reply. *)

val settle : t -> unit
(** Run to the horizon, one last anti-entropy round, then
    {!Nearby.Cluster.check_invariants}. *)

val staleness : t -> Prelude.Sketch.t * float
(** Report ages now, merged over fresh per-replica {!Nearby.Staleness}
    trackers, and the oldest report served. *)

type kind_row = { kind : string; bytes : int; msgs : int }
(** One wire message kind summed over directions. *)

val counter_sum : ?where:(Simkit.Metrics.labels -> bool) -> Simkit.Metrics.t -> string -> int
(** A labeled counter summed over the series passing [where] (default all). *)

val wire_kinds : Simkit.Metrics.t -> kind_row list
(** [wire_bytes_total] / [wire_msgs_total] by kind, largest first. *)

val kind_bytes : kind_row list -> string -> int
