(** Bench regression gate: BENCH_*.json vs committed baselines.

    Extracts machine-robust metrics from the three bench artifacts —
    timing normalized to the tree backend measured in the same run,
    deterministic simulated-time resilience numbers near-exact, booleans
    exact — and compares a current document against a baseline.  A metric
    present in the baseline but missing from the current document fails.
    Driven by [bench/main.exe -- regress]; wired as a CI job. *)

type direction =
  | Higher_better  (** Fails when current < baseline × (1 − tolerance). *)
  | Lower_better  (** Fails when current > baseline × (1 + tolerance). *)
  | Exact

type metric = {
  name : string;
  value : float;
  direction : direction;
  tolerance : float;
  skip : string option;
      (** Why the machine that produced the document cannot measure this
          gate; compared against it, the gate is skipped with the reason. *)
}

type status = Pass | Fail | Skipped of string

type comparison = {
  name : string;
  baseline : float;
  current : float option;  (** [None]: the metric disappeared — a failure. *)
  status : status;
}

val registry_metrics : Simkit.Json.t -> metric list
(** From BENCH_registry.json: per-backend insert/query throughput relative
    to tree (tolerance 0.6) and the answers-identical invariant (exact),
    and the same per sweep point.  A [sharded:N] query throughput gate
    carries a skip when the document's [meta.domains] is below [N]: the
    scatter then measures contention for too few cores.
    @raise Failure on a malformed document. *)

val obs_metrics : Simkit.Json.t -> metric list
(** From BENCH_obs.json: per-backend insert/query p99 relative to tree
    (tolerance 1.5 — tails are noisy).  @raise Failure when malformed. *)

val resilience_metrics : Simkit.Json.t -> metric list
(** From BENCH_resilience.json: per scenario × replica-count completion
    rate (0.02), join p99 in simulated ms (0.15) and the consistency bit
    (exact).  @raise Failure when malformed. *)

val load_metrics : Simkit.Json.t -> metric list
(** From BENCH_load.json: per arrival × policy completion rate (0.02),
    admitted-join p99 in simulated ms (0.15), goodput (0.1), shed
    fraction (0.2), and the headline bits exact — [p99_within_budget]
    (the SLO shedder holds the budget at 2x saturation, drop-tail does
    not) and sheds-iff-saturated.  @raise Failure when malformed. *)

val wire_metrics : Simkit.Json.t -> metric list
(** From BENCH_wire.json: bytes/join and bytes/query (0.1 — deterministic
    simulated byte counts), snapshot repair bytes per join (0.5), the
    batching saving ratio (0.05), and the structural bits exact —
    accounting reconciles ([accounted]), replication amplification equals
    the committed value, batching saves upload bytes.
    @raise Failure when malformed. *)

val health_metrics : Simkit.Json.t -> metric list
(** From BENCH_health.json: completion rate (0.02), divergence detection
    latency and anti-entropy lag p50 (0.5 — poll-period quantized), report
    age p50 (0.25), and the structural bits exact — the loss burst causes
    at least one detected divergence episode, every episode closes, the
    run reconverges, and the digest gate saves at least one snapshot
    transfer.  @raise Failure when malformed. *)

val compare_metrics : baseline:metric list -> current:metric list -> comparison list
(** One comparison per baseline metric; thresholds come from the baseline
    side, a skip from the current side ({!Skipped}, not a failure). *)

val failures : comparison list -> comparison list
val print : comparison list -> unit
