(** The registry cross-check behind [nearby_sim registry]: one scenario,
    the same for every backend, joins the whole population through a
    {!Nearby.Server} over that backend and asks everyone's [k] nearest.
    The path tree's answers are the reference every backend must match.

    Also the command's exports: the JSON metrics snapshot, the Prometheus
    exposition and the span trace, built here so that the command and
    the tests read the same bytes. *)

type config = {
  routers : int;
  peers : int;
  k : int;
  seed : int;
  audit_rate : float;
      (** Fraction of replies audited against BFS ground truth; 0 audits
          none. *)
  timeseries : bool;
      (** Keep a windowed timeseries per backend (100 queries per
          window), the feed of the audit series and of SLO checks; on
          whenever [audit_rate > 0]. *)
  traced : bool;  (** Buffer join/query/store spans for {!trace_jsonl}. *)
  metered : bool;
      (** Time every registry call into a per-backend trace, the
          ["registry:<backend>"] section of the exports. *)
}

val quick_config : config
(** [nearby_sim registry --quick]: 600 routers, 150 peers, k = 5, seed 1,
    no audit, untraced, unmetered. *)

type run = {
  spec : Backends.spec;
  server : Nearby.Server.t;
  answers : (int * int) list array;  (** Per peer, its [k] nearest. *)
  spans : Simkit.Span.sink;  (** {!Simkit.Span.noop} unless [traced]. *)
  metrics : Simkit.Trace.t option;  (** [Some] when [metered]. *)
  timeseries : Simkit.Timeseries.t option;
  auditor : Nearby.Audit.t option;  (** [Some] when [audit_rate > 0]. *)
}

type t = {
  config : config;
  reference : (int * int) list array;  (** The path tree's answers. *)
  runs : run list;  (** One per spec, in order. *)
}

val run : config -> Backends.spec list -> t
(** Build the workload and run the scenario once untraced on the path
    tree (the reference) and once per spec. *)

val metrics_json : t -> string
(** The [--metrics-out] snapshot: [meta] (seed, backends, routers, peers,
    k), per backend the sections ["server:<b>"], ["registry:<b>"] (when
    metered) and ["audit:<b>"] (when audited), and the timeseries keyed
    by backend. *)

val prometheus : t -> string
(** The [--prom-out] exposition of the same sections. *)

val trace_jsonl : t -> string
(** The [--trace-out] trace: every run's spans as Chrome trace-event
    JSONL, run [i] (from 0) under pid [i + 1]; [""] when untraced. *)
