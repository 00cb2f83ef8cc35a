(** The bytes-on-wire experiment behind [bench wire] / BENCH_wire.json.

    Measures what the protocol actually costs on the wire: bytes per
    join, bytes per query, replication amplification and anti-entropy
    snapshot cost — all read back from the transport's labeled wire
    accounting ([wire_bytes_total{kind,dir}],
    [wire_dropped_bytes_total{reason}]).

    Every peer joins through its own resilient RPC under a mid-window
    loss burst, so the retry, dropped and snapshot byte buckets are all
    nonzero in one run.  Deterministic in the seed. *)

type config = {
  routers : int;
  peers : int;  (** Joins. *)
  k : int;
  replicas : int;
  loss : float;  (** Burst loss probability over 25%–60% of the window. *)
  arrival_window_ms : float;
  sync_period_ms : float;
  seed : int;
}

val default_config : config
(** The headline shape: 3 replicas, 10k joins, 0.3 loss burst. *)

val quick_config : config
(** CI shape: 800 routers, 1.5k joins. *)

type kind_row = Cluster_run.kind_row = { kind : string; bytes : int; msgs : int }
(** One message kind summed over directions. *)

type result = {
  joins : int;
  completed : int;
  failed : int;
  completion_rate : float;
  bytes_sent : int;  (** Delivered bytes. *)
  bytes_dropped : int;
  messages : int;
  bytes_per_join : float;
      (** Request+reply-direction bytes (reports, queries, replies,
          retries — not replica fan-out) per completed join. *)
  bytes_per_query : float;  (** (query + reply kind bytes) per completed join. *)
  replication_amplification : float;
      (** {!Nearby.Cluster.replication_amplification} — between 1 and
          the replica count: most replicas are sent a route prefix, not the
          full report. *)
  snapshot_bytes : int;  (** Anti-entropy repair traffic ([kind="snapshot"]). *)
  retry_bytes : int;
  fd_probe_bytes : int;
  dropped_loss_bytes : int;
  dropped_unreachable_bytes : int;
  dropped_partition_bytes : int;
  kinds : kind_row list;  (** Largest first. *)
  top_talkers : Simkit.Transport.talker list;  (** Top 5 endpoints. *)
  accounted : bool;
      (** The accounting reconciles: Σ [wire_bytes_total] =
          [Transport.bytes_sent] and Σ [wire_dropped_bytes_total] =
          [Transport.bytes_dropped]. *)
}

val run : config -> result
(** @raise Invalid_argument on replicas < 1 or loss outside [0, 1). *)

val result_json : result -> string
(** The result as one JSON object (the ["wire"] section of
    BENCH_wire.json). *)

val gates : result -> Regression.gate list
(** Completion rate (0.02), bytes/join and bytes/query (0.1), snapshot
    repair bytes per join (0.5), and exact structural bits: accounting
    reconciles, amplification equals the committed value, the loss burst
    drops bytes, endpoints are tallied, and each of the six message kinds
    moves bytes. *)

val print : result -> unit
