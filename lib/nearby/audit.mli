(** Online answer-quality auditing (sampled ground-truth checks).

    Wraps a {!Server}'s query path and, for a sampled fraction of replies,
    computes what the server cannot see — the {e true} nearest registered
    peers, by BFS over the router graph from the audited peer's attachment
    point — and streams quality measures into a {!Simkit.Trace} (whole-run)
    and optionally a {!Simkit.Timeseries} (per-window, for {!Simkit.Slo}
    objectives like ["audit_recall_at_k>=0.9"]).

    Streams (both sinks, same names):
    - ["audit_stretch"]: true distance of the returned set over the
      best-possible set of the same size; 1.0 = optimal.  The degenerate
      zero-distance optimum follows [Eval.Measure] (ratio 1.0 when the
      reply is also at distance zero, sample skipped otherwise).
    - ["audit_recall_at_k"]: fraction of the true top-k in the reply.
    - ["audit_rank_displacement"]: mean over reply positions of (rank in
      the true order − position in the reply); 0 = perfectly ordered.

    Counters: ["audit_samples"], ["audit_not_sampled"], ["audit_exact"]
    (recall 1.0), ["audit_empty"], ["audit_stretch_skipped"],
    ["audit_no_info"].

    At rate 1.0 the auditor is the offline evaluator running inline; the
    test suite pins the equivalence against [Eval.Measure.score]. *)

type t

val create :
  ?rate:float ->
  ?seed:int ->
  ?timeseries:Simkit.Timeseries.t ->
  ?clock:(unit -> float) ->
  Server.t ->
  t
(** [rate] is the audited fraction of replies (default 0.01); sampling uses
    a private PRNG from [seed] so runs stay reproducible.  [clock] supplies
    the timeseries timestamp (engine clock in simulations; defaults to a
    constant 0, which drops every sample into window 0).
    @raise Invalid_argument when [rate] is outside [0, 1]. *)

val rate : t -> float
val trace : t -> Simkit.Trace.t

val neighbors : t -> peer:int -> k:int -> (int * int) list
(** Exactly [Server.neighbors], plus a sampled audit of the reply. *)

val sample_reply : t -> peer:int -> reply:(int * int) list -> unit
(** Sampled audit of a reply obtained elsewhere (e.g. through the cluster
    RPC path). *)

val audit_reply : t -> peer:int -> reply:(int * int) list -> unit
(** Unconditional audit — one BFS plus a population sort; the primitive
    behind {!sample_reply}. *)
