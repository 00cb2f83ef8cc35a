(** Extension E2: super-peer delegation.

    Compares the centralized management server against per-landmark
    super-peers: discovery quality (identical data structure, minus
    cross-tree top-up), and the load split across super-peers.  A
    super-peer serves one landmark's tree, so the super-peers together are
    a second {!Nearby.Server} answering without its top-up, and a region's
    load is its landmark's member count ({!Measure.landmark_members}). *)

type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  seeds : int list;
}

val default_config : config
val quick_config : config

type row = {
  seed : int;
  ratio_central : float;
  ratio_super : float;
  load_imbalance : float;  (** {!Measure.max_over_mean} of the region sizes. *)
  max_region_members : int;
  min_region_members : int;
}

val run : config -> row list
val row_json : row -> string
(** One row as a JSON object (the ["rows"] of BENCH_superpeers.json). *)

val gates : row list -> Regression.gate list
(** Per seed, central and super D/Dclosest (lower is better, 0.05) and the
    largest and smallest region's member count (exact). *)

val print : row list -> unit
