(** The state-health experiment behind [bench health] / BENCH_health.json.

    Forces real replica divergence — a mid-window loss burst drops write
    fan-outs while peers join through the resilient RPC path — and then
    measures whether the health instruments notice and how fast the system
    heals: digest-check detection latency, divergence/convergence episode
    edges in the flight recorder, anti-entropy reconvergence lag, the
    digest-gated snapshot transfers saved, and report-age staleness
    quantiles at the horizon.  Deterministic in the seed. *)

type config = {
  routers : int;
  peers : int;
  k : int;
  replicas : int;
  loss : float;  (** Burst loss probability over 25%–60% of the window. *)
  arrival_window_ms : float;
  sync_period_ms : float;
  check_period_ms : float;
      (** Digest-check poll period — much finer than the sync period, so
          detection timestamps are close to the drift, not the repair. *)
  seed : int;
}

val default_config : config
(** The headline shape: 3 replicas, 8k joins, 0.4 loss burst, 250 ms
    digest polls against 2 s sync rounds. *)

val quick_config : config
(** CI shape: 800 routers, 1.2k joins. *)

type result = {
  joins : int;
  completed : int;
  failed : int;
  completion_rate : float;
  digest_checks : int;  (** Total digest comparisons (polls + sync ends). *)
  checks_consistent : int;  (** [cluster_digest_checks_total{result="consistent"}]. *)
  checks_divergent : int;  (** [cluster_digest_checks_total{result="divergent"}]. *)
  divergence_episodes : int;  (** Flight-recorder ["divergence"] edges. *)
  convergence_episodes : int;  (** Flight-recorder ["convergence"] edges. *)
  max_divergent_replicas : int;  (** Worst poll reading. *)
  detection_latency_ms : float;
      (** Loss-burst onset to the first divergence edge at or after it
          (earlier edges are transient in-flight replication the fine poll
          also sees); [nan] when the burst never caused a detectable
          divergence. *)
  lag_count : int;  (** Closed episodes in ["cluster_antientropy_lag_ms"]. *)
  lag_p50_ms : float;  (** Median first-detection → reconvergence time. *)
  lag_max_ms : float;
  sync_rounds : int;
  sync_restores : int;  (** Snapshot transfers actually performed. *)
  sync_skipped : int;  (** Transfers the digest gate saved. *)
  sync_bytes : int;  (** Snapshot payload bytes restored. *)
  snapshot_wire_bytes : int;  (** [wire_bytes_total{kind="snapshot"}]. *)
  report_age_p50_ms : float;
      (** Report-age quantiles at the horizon, merged across replicas
          (sketch-backed). *)
  report_age_p90_ms : float;
  report_age_p99_ms : float;
  report_age_oldest_ms : float;  (** Stalest report still served. *)
  refresh_total : int;  (** Fleet ["report_refresh"] count. *)
  refresh_rate_hz : float;  (** [refresh_total] over the run duration. *)
  final_divergent : int;  (** Divergent replicas after the last check. *)
  converged : bool;
      (** [final_divergent = 0] and every divergence episode closed. *)
}

val run : config -> result
(** @raise Invalid_argument on replicas < 2, loss outside (0, 1) or a
    non-positive check period. *)

val result_json : result -> string
(** The result as one JSON object (the ["health"] section of
    BENCH_health.json). *)

val gates : result -> Regression.gate list
(** Completion rate (0.02), detection latency and lag p50 (0.5 —
    poll-period quantized), report age p50 (0.25), and exact structural
    bits: divergence detected and every episode closed with one lag
    sample, the run reconverged, the digest gate saved transfers, real
    drift paid for snapshot restores, refreshes cover the joins, and the
    report-age quantiles are ordered. *)

val print : result -> unit
