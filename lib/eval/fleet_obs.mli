(** Fleet-wide dimensional-metrics workload and the `top` dashboard.

    A healthy [replicas]-way cluster whose servers run the path tree,
    with every layer writing into one labeled {!Simkit.Metrics}
    registry:

    - per-backend mirrors ([registry_*_ns{backend="tree"}]);
    - per-outcome RPC counters ([rpc_outcomes{outcome=...}]);
    - per-replica scrape series ([join_ms{replica="i"}]) next to the
      merged fleet trace of {!Nearby.Cluster.fleet_trace};
    - a {!Simkit.Runtime_profile} (GC deltas per phase, observe-path
      overhead).

    The engine advances in slices, so `nearby_sim top` renders a frame
    between slices and watches the fleet fill up in simulated time. *)

type config = {
  routers : int;
  peers : int;
  k : int;
  replicas : int;
  arrival_window_ms : float;
  sync_period_ms : float;
  window_ms : float;  (** Timeseries / SLO window width, ms. *)
  admission_rate_per_s : float;
      (** Drain rate of the {!Nearby.Admission} queue every join passes
          through — generous by default (well above the arrival rate,
          capacity for every peer), so a healthy fleet never sheds and the
          queueing term adds at most a few drain ticks to join latency. *)
  bandwidth_budget_bytes_per_s : float;
      (** Wire-bandwidth SLO: a completed window whose delivered-bytes
          rate exceeds this raises an edge-triggered ["wire"]-kind
          flight-recorder breach event (cleared on the first window back
          under budget). *)
  slos : Simkit.Slo.spec list;
  seed : int;
}

val default_slos : Simkit.Slo.spec list
(** Join p99 under 2 s and 99% completion — the dashboard's stock
    objectives. *)

val default_config : config
(** 2000 routers, 300 peers, 3 replicas. *)

val quick_config : config
(** CI-sized: 800 routers, 120 peers. *)

type t
(** A running (or finished) fleet session; doubles as the run's
    artifacts. *)

val start : config -> t
(** Build the workload, cluster, RPC layer and schedule every join;
    nothing has executed yet.  @raise Invalid_argument on a non-positive
    replica or window configuration. *)

val advance : t -> until:float -> unit
(** Run the engine up to [min until horizon] (a profiled ["run"]
    phase). *)

val horizon : t -> float
(** Engine time by which every join has resolved (worst-case RPC
    schedule included). *)

val now : t -> float
val finished : t -> bool
val metrics : t -> Simkit.Metrics.t
(** The shared labeled registry (backend / RPC series). *)

val timeseries : t -> Simkit.Timeseries.t
val runtime : t -> Simkit.Runtime_profile.t
val cluster : t -> Nearby.Cluster.t

val transport : t -> Simkit.Transport.t
(** The shared transport — wire counters, drop buckets and
    {!Simkit.Transport.top_talkers} for the dashboard's wire panel. *)

val recorder : t -> Simkit.Flight_recorder.t
(** Receives the ["wire"]-kind bandwidth breach / clear events. *)

val wire_breaches : t -> int
(** Bandwidth-SLO breach edges seen so far. *)

val admission : t -> Nearby.Admission.t
(** The bounded queue in front of the cluster (depth / totals for the
    dashboard's admission panel). *)

val fleet_trace : t -> Simkit.Trace.t
(** {!Nearby.Cluster.fleet_trace} — freshly merged on every call. *)

val scrape : t -> Simkit.Metrics.t
(** A fresh registry holding the per-replica ([{replica="i"}]) scrape —
    fresh each call because scraping the same registry twice
    double-counts. *)

val metrics_json : t -> string
(** The [top --metrics-out] snapshot: [meta] (seed, [replicas] extra),
    the fleet timeseries, the labeled fleet registry and a fresh
    {!scrape} as ["fleet"] and ["replicas"], the runtime profile, and the
    merged {!fleet_trace} as section ["fleet"] (its counters include the
    servers' ["join_continue"]).  Before exporting, it sets the fleet
    registry's gauges ["join_probes_per_join"] and
    ["join_continue_per_join"]: the merged servers' probe packets and
    continue answers per registered join. *)

val prometheus : t -> string
(** The [top --prom-out] exposition: the fleet registry (with the join
    gauges {!metrics_json} sets) and a fresh {!scrape}, labeled sections
    ["fleet"] and ["replicas"]. *)

type result = {
  joins : int;
  completed : int;
  failed : int;
  fleet_join_p50_ms : float;  (** Merged-trace sketch quantiles. *)
  fleet_join_p99_ms : float;
  replica_join_p99_ms : float array;  (** Labeled per-replica p99s. *)
  rpc_ok : int;
  rpc_timeouts : int;
  overhead_ns : float;  (** Profiler observe-path self-overhead. *)
  wire_bytes : int;  (** Delivered bytes, all kinds. *)
  wire_dropped_bytes : int;
  replication_amplification : float;
      (** See {!Nearby.Cluster.replication_amplification}. *)
  digest_checks : int;
      (** Divergence comparisons run (per-window polls + sync-round
          ends). *)
  divergent_replicas : int;  (** Replicas diverging at the horizon (0 when healthy). *)
  report_age_p50_ms : float;
      (** Fleet report-age median at the horizon, merged across replicas;
          [nan] with no reports. *)
  report_age_oldest_ms : float;  (** Stalest report still served. *)
}

val result : t -> result
(** Drives the engine to the horizon first if needed. *)

val run : config -> result * t

val render : t -> string
(** One dashboard frame: header, ops/s and join-latency sparklines, SLO
    status lines, RPC outcome mix, the wire panel (per-kind byte mix,
    replication amplification, top talkers, bandwidth sparkline), the
    admission panel (queue-depth sparkline plus shed mix) and runtime (GC
    per phase, overhead).  Plain text, no escape sequences. *)
