(** The gates of [bench/stack]'s deterministic metrics at tiny scale.

    CI runs every workload with [--scale tiny --seconds 0 --seed 1] and
    keeps each run's last line, the JSON summary.  [bench/main.exe
    stack-gates] turns those four summaries into [BENCH_stack_tiny.json],
    which [regress] compares with its baseline.  Every gate is exact:
    these values repeat bit for bit per seed. *)

val workloads : string list
(** The four workloads, in [BENCHMARK.json]'s order. *)

val metrics : string -> string list
(** A workload's gated metrics: state bytes per member, client and wire
    bytes per op, and the simulated join latencies, which [query-250k]
    lacks (its latencies are wall-clock). *)

val gates : string -> Simkit.Json.t -> Regression.gate list
(** [gates workload summary]: the flags ["stack/<w>/correct"] (the run's
    checks passed) and ["stack/<w>/no_failed"] (no operation failed),
    then one exact gate ["stack/<w>/<metric>"] per {!metrics}; a metric
    the summary lacks gates as nan, which fails. *)
