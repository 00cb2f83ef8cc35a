(* The gates of the registry and obs bench sections.  bench/main.ml
   measures the rows; the gate decision lives here so a test reaches the
   same list the emitter writes. *)

open Regression

type row = { spec : Backends.spec; insert_ops : float; query_ops : float; identical : bool }

type sweep_row = {
  sw_n : int;
  sw_insert_ops : float;
  sw_query_ops : float;
  sw_members : int;
  sw_bytes : int;
}

type obs_row = {
  o_spec : Backends.spec;
  insert_ns : Simkit.Trace.summary;
  query_ns : Simkit.Trace.summary;
  insert_exemplars : int;
  query_exemplars : int;
  introspect : Nearby.Registry_intf.introspection;
}

let rel_tree key direction tolerance rows =
  match List.assoc_opt Backends.Tree rows with
  | None -> invalid_arg "Registry_gates.rel_tree: no tree row"
  | Some tree ->
      List.filter_map
        (fun (spec, v) ->
          if spec = Backends.Tree then None
          else
            Some (wall_clock_ratio (key (Backends.to_string spec)) (v /. tree) direction tolerance))
        rows

(* Per tree sweep point: the member count and bytes/member, both counts,
   so exact.  Points above 100k members are not gated: CI sweeps to 100k,
   and a gate present in the baseline but missing from the current
   document fails by design. *)
let sweep rows =
  List.filter (fun r -> r.sw_n <= 100_000) rows
  |> List.concat_map (fun r ->
         let key = Printf.sprintf "registry/sweep/%d/tree/%s" r.sw_n in
         [
           exact (key "members") (float_of_int r.sw_members);
           exact (key "bytes_per_member")
             (float_of_int r.sw_bytes /. Float.max 1.0 (float_of_int r.sw_members));
         ])

(* Throughput relative to the tree backend of the same run, the
   answers-identical invariant, and the tree's minor words per returned
   neighbor: a query allocates its answer alone, 6 words per neighbor,
   so the count is exact on any machine. *)
let registry ~query_words_per_answer rows sweep_rows =
  let column f = List.map (fun r -> (r.spec, f r)) rows in
  rel_tree (Printf.sprintf "registry/%s/insert_rel_tree") Higher_better 0.6
    (column (fun r -> r.insert_ops))
  @ rel_tree (Printf.sprintf "registry/%s/query_rel_tree") Higher_better 0.6
      (column (fun r -> r.query_ops))
  @ List.map
      (fun r ->
        flag (Printf.sprintf "registry/%s/answers_identical" (Backends.to_string r.spec)) r.identical)
      rows
  @ [ exact "registry/tree/query_words_per_answer" query_words_per_answer ]
  @ sweep sweep_rows

(* p99 relative to the tree backend: tails are the noisiest numbers
   gated, hence the widest tolerance.  Exemplars must be present (the
   trace-id tagging path stays wired up); the introspection counts, the
   sketch error and the simulated-clock fleet view are deterministic in
   the seed, so exact. *)
let obs ~sketch_max_err ~sketch_within ~(fleet : Fleet_obs.result) ~fleet_completion ~fleet_within
    rows =
  let p99 (pick : obs_row -> Simkit.Trace.summary) = List.map (fun r -> (r.o_spec, (pick r).p99)) rows in
  rel_tree (Printf.sprintf "obs/%s/insert_p99_rel_tree") Lower_better 1.5 (p99 (fun r -> r.insert_ns))
  @ rel_tree (Printf.sprintf "obs/%s/query_p99_rel_tree") Lower_better 1.5 (p99 (fun r -> r.query_ns))
  @ List.concat_map
      (fun r ->
        let key = Printf.sprintf "obs/%s/%s" (Backends.to_string r.o_spec) in
        [
          flag (key "exemplars_present") (r.insert_exemplars > 0 && r.query_exemplars > 0);
          exact (key "introspect_members") (float_of_int r.introspect.members);
          exact (key "introspect_routers") (float_of_int r.introspect.routers);
        ])
      rows
  @ [
      flag "obs/sketch/within_bound" sketch_within;
      exact "obs/sketch/max_rel_err" sketch_max_err;
      exact "obs/fleet/completion_rate" fleet_completion;
      exact "obs/fleet/merged_p99_ms" fleet.fleet_join_p99_ms;
      flag "obs/fleet/within_bound" fleet_within;
    ]
