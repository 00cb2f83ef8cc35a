(** Reproduction of the paper's measured figure (DESIGN.md "fig2").

    x-axis: number of peers (600..1400); series: [Drandom / Dclosest] and
    [D / Dclosest] where [D] is the proposed scheme's hop-distance sum.
    The paper's reading: the proposed ratio is low (~1.1–1.2) and {e stable}
    as the population grows; the random ratio is high (~2.2+) and noisy. *)

type config = {
  routers : int;
  landmark_count : int;
  k : int;  (** Neighbors requested per peer. *)
  peer_counts : int list;
  seeds : int list;  (** Independent repetitions, averaged. *)
}

val default_config : config
(** 4000 routers, 8 landmarks, k = 5, n in {600, 800, ..., 1400}, 3 seeds. *)

val quick_config : config
(** Smaller map and a single seed, for smoke runs. *)

type row = {
  n : int;
  ratio_proposed : float;  (** D / Dclosest, mean over seeds. *)
  ratio_random : float;  (** Drandom / Dclosest, mean over seeds. *)
  ratio_proposed_ci : float;  (** 95% CI half-width over seeds. *)
  ratio_random_ci : float;
  hit_proposed : float;
}

val run : config -> row list
val row_json : row -> string
(** One row as a JSON object (the ["rows"] of BENCH_fig2.json). *)

val gates : row list -> Regression.gate list
(** Per n, D/Dclosest (lower is better, 0.05), plus two exact flags: every
    D/Dclosest lies in [1.0, 1.3] (paper ~1.1–1.2), and Drandom/Dclosest
    exceeds D/Dclosest at every n. *)

val print : row list -> unit
(** Table plus an ASCII rendering of the two series, matching the paper's
    axes. *)
