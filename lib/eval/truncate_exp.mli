(** Extension E4: decreased traceroute — quality vs probe cost.

    The paper wants a cheaper tool that records "only some routers along the
    path".  Each strategy trades probe packets for path resolution; the
    experiment reports, per strategy, the quality ratio and the mean probe
    packets a join cost. *)

type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  strategies : Traceroute.Truncate.strategy list;
  seeds : int list;
}

val default_config : config
val quick_config : config

type row = {
  strategy : Traceroute.Truncate.strategy;
  ratio : float;
  hit_ratio : float;
  mean_probes_per_join : float;
}

val run : config -> row list

val row_json : row -> string

val gates : row list -> Regression.gate list
(** Per strategy, D/Dclosest and probes per join, plus flags "full has the
    lowest D/Dclosest" and "no strategy probes more than full". *)

val print : row list -> unit
