(** The gates of the registry and obs bench sections ([BENCH_registry.json],
    [BENCH_obs.json]), built from the rows [bench/main.exe] measures. *)

type row = {
  spec : Backends.spec;
  insert_ops : float;
  query_ops : float;
  identical : bool;  (** Answers equal the tree backend's. *)
}

(** One point of the tree's scaling sweep. *)
type sweep_row = {
  sw_n : int;
  sw_insert_ops : float;
  sw_query_ops : float;
  sw_members : int;
  sw_bytes : int;
  sw_router_entries : int;  (** router-bucket entries ({!Nearby.Path_tree_core.fill}) *)
}

type obs_row = {
  o_spec : Backends.spec;
  insert_ns : Simkit.Trace.summary;
  query_ns : Simkit.Trace.summary;
  insert_exemplars : int;
  query_exemplars : int;
  introspect : Nearby.Registry_intf.introspection;
}

val rel_tree :
  (string -> string) ->
  Regression.direction ->
  float ->
  (Backends.spec * float) list ->
  Regression.gate list
(** [rel_tree key direction tolerance rows]: one
    {!Regression.wall_clock_ratio} gate per non-tree row, named
    [key backend], valued as the row's measurement over the tree row's
    from the same run — machine speed cancels.  The only banded gates.
    @raise Invalid_argument without a tree row. *)

val registry :
  query_words_per_answer:float -> row list -> sweep_row list -> Regression.gate list
(** Insert and query throughput relative to tree (0.6) and the
    answers-identical flag per backend row; the tree's minor words per
    neighbor its queries return; per sweep point at n ≤ 100k, members
    and bytes/member.  Every gate but the [*_rel_tree] ratios is exact. *)

val obs :
  sketch_max_err:float ->
  sketch_within:bool ->
  fleet:Fleet_obs.result ->
  fleet_completion:float ->
  fleet_within:bool ->
  obs_row list ->
  Regression.gate list
(** Insert/query p99 relative to tree (1.5), exemplar presence and
    introspection counts per backend, the sketch's error bound and the
    fleet view's completion, merged p99 and envelope flag.  Every gate but
    the [*_rel_tree] ratios is exact. *)
