(* The bench regression gate: compare freshly generated BENCH_*.json
   documents against committed baselines and fail beyond tolerance.

   CI machines differ wildly in absolute speed, so raw ops/s or ns numbers
   are useless as a gate.  Every timing metric is therefore normalized to
   the tree backend measured in the same run — relative throughput and
   relative tails cancel the machine — while the resilience numbers
   (completion rate, simulated-ms latency) are deterministic in the seed
   and compared almost exactly.  Booleans (answers_identical, consistent)
   are exact.

   A metric present in the baseline but missing from the current document
   fails the gate: silently dropping a measurement is how regressions
   hide.  New metrics in the current document pass (they will gate once
   the baseline is updated).  A metric the producing machine cannot
   measure carries the reason, and is reported as skipped, not passed. *)

type direction = Higher_better | Lower_better | Exact

type metric = {
  name : string;
  value : float;
  direction : direction;
  tolerance : float;  (* allowed fractional drift in the bad direction *)
  skip : string option;
}

type status = Pass | Fail | Skipped of string

type comparison = {
  name : string;
  baseline : float;
  current : float option;  (* None: metric disappeared *)
  status : status;
}

let gate ?skip name value direction tolerance = { name; value; direction; tolerance; skip }
let exact name value = gate name value Exact 0.0
let flag name b = exact name (if b then 1.0 else 0.0)

(* --- Extraction -------------------------------------------------------- *)

let fail fmt = Printf.ksprintf failwith fmt

let num doc path_keys =
  match Option.bind (Simkit.Json.path path_keys doc) Simkit.Json.to_float with
  | Some v -> v
  | None -> fail "missing number at %s" (String.concat "." path_keys)

let boolean doc path_keys =
  match Option.bind (Simkit.Json.path path_keys doc) Simkit.Json.to_bool with
  | Some v -> v
  | None -> fail "missing bool at %s" (String.concat "." path_keys)

let str doc path_keys =
  match Option.bind (Simkit.Json.path path_keys doc) Simkit.Json.to_string with
  | Some v -> v
  | None -> fail "missing string at %s" (String.concat "." path_keys)

(* A sharded backend's query scatters over a pool of domains: on a machine
   with fewer domains than shards it measures the pool's contention, not
   the backend, so its throughput gate is skipped there. *)
let query_skip doc backend =
  match String.split_on_char ':' backend with
  | [ "sharded"; shards ] -> (
      let domains =
        Option.bind (Simkit.Json.path [ "meta"; "domains" ] doc) Simkit.Json.to_float
      in
      match (domains, int_of_string_opt shards) with
      | Some d, Some n when int_of_float d < n ->
          Some (Printf.sprintf "meta.domains %d < %d shards" (int_of_float d) n)
      | _ -> None)
  | _ -> None

let rows doc key =
  match Option.bind (Simkit.Json.member key doc) Simkit.Json.to_list with
  | Some rows -> rows
  | None -> fail "missing array %S" key

(* The scaling sweep ("sweep" array of BENCH_registry.json): per sweep
   point, exact structural gates (member counts, cross-backend answer
   equivalence) plus machine-normalized ratios — sharded throughput
   relative to the tree of the same run, and bytes/member relative to the
   committed baseline (a pure allocation count, so it needs no
   normalization, only slack for rounding).  Points above 100k members are
   NOT gated: the CI job sweeps to 100k (`--sweep-max 100000`), and a
   metric present in the baseline but missing from the current document
   fails the gate by design. *)
let sweep_metrics doc =
  let rows =
    match Option.bind (Simkit.Json.member "sweep" doc) Simkit.Json.to_list with
    | Some rows -> rows
    | None -> []
  in
  let rows =
    List.filter (fun row -> int_of_float (num row [ "n" ]) <= 100_000) rows
  in
  let point row = int_of_float (num row [ "n" ]) in
  let backend row = str row [ "backend" ] in
  let tree_query_at n =
    match
      List.find_opt (fun row -> point row = n && backend row = "tree") rows
    with
    | Some row -> num row [ "query_ops_per_s" ]
    | None -> fail "BENCH_registry sweep: no tree row at n=%d" n
  in
  List.concat_map
    (fun row ->
      let n = point row in
      let b = backend row in
      let key metric = Printf.sprintf "registry/sweep/%d/%s/%s" n b metric in
      let structural =
        [
          flag (key "answers_identical") (boolean row [ "answers_identical" ]);
          exact (key "members") (num row [ "members" ]);
          gate (key "bytes_per_member")
            (num row [ "approx_bytes" ] /. Float.max 1.0 (num row [ "members" ]))
            Lower_better 0.5;
        ]
      in
      if b = "tree" then structural
      else
        gate ?skip:(query_skip doc b) (key "query_rel_tree")
          (num row [ "query_ops_per_s" ] /. tree_query_at n)
          Higher_better 0.5
        :: structural)
    rows

(* BENCH_registry.json: throughput relative to the tree backend of the same
   run, plus the answers-identical invariant. *)
let registry_metrics doc =
  let backends = rows doc "backends" in
  let name_of row = str row [ "backend" ] in
  let tree =
    match List.find_opt (fun row -> name_of row = "tree") backends with
    | Some row -> row
    | None -> fail "BENCH_registry: no tree backend row"
  in
  let tree_insert = num tree [ "insert_ops_per_s" ] in
  let tree_query = num tree [ "query_ops_per_s" ] in
  List.concat_map
    (fun row ->
      let b = name_of row in
      let identical =
        flag
          (Printf.sprintf "registry/%s/answers_identical" b)
          (boolean row [ "answers_identical" ])
      in
      if b = "tree" then [ identical ]
      else
        [
          gate
            (Printf.sprintf "registry/%s/insert_rel_tree" b)
            (num row [ "insert_ops_per_s" ] /. tree_insert)
            Higher_better 0.6;
          gate ?skip:(query_skip doc b)
            (Printf.sprintf "registry/%s/query_rel_tree" b)
            (num row [ "query_ops_per_s" ] /. tree_query)
            Higher_better 0.6;
          identical;
        ])
    backends
  @ sweep_metrics doc

(* The quantile sketch's measured fidelity on a deterministic sample set:
   the error is a pure function of the seed, so it gates tightly — a
   bucketing regression shows up as a bound violation, not noise. *)
let obs_sketch_metrics doc =
  [
    flag "obs/sketch/within_bound" (boolean doc [ "sketch"; "within_bound" ]);
    gate "obs/sketch/max_rel_err" (num doc [ "sketch"; "max_rel_err" ]) Lower_better 0.5;
  ]

(* The merged fleet view runs on the simulated clock, so completion and
   the merged tail are deterministic in the seed (resilience-style
   tolerances); the sketch-bound check is structural and gates exactly. *)
let obs_fleet_metrics doc =
  [
    gate "obs/fleet/completion_rate" (num doc [ "fleet"; "completion_rate" ]) Higher_better 0.02;
    gate "obs/fleet/merged_p99_ms" (num doc [ "fleet"; "merged_p99_ms" ]) Lower_better 0.15;
    flag "obs/fleet/within_bound" (boolean doc [ "fleet"; "within_bound" ]);
    gate "obs/fleet/shard_skew" (num doc [ "fleet"; "shard_skew" ]) Lower_better 0.5;
  ]

(* BENCH_obs.json: p99 latency relative to the tree backend.  Tails are the
   noisiest numbers we gate on, hence the widest tolerance.  The exemplar
   and introspection numbers, by contrast, are deterministic in the seed:
   exemplars must be present (the trace-id tagging path stays wired up) and
   the structural counts must not drift. *)
let obs_metrics doc =
  let backends = rows doc "backends" in
  let name_of row = str row [ "backend" ] in
  let tree =
    match List.find_opt (fun row -> name_of row = "tree") backends with
    | Some row -> row
    | None -> fail "BENCH_obs: no tree backend row"
  in
  let tree_insert = num tree [ "insert_ns"; "p99" ] in
  let tree_query = num tree [ "query_ns"; "p99" ] in
  List.concat_map
    (fun row ->
      let b = name_of row in
      let structural =
        [
          exact
            (Printf.sprintf "obs/%s/exemplars_present" b)
            (if num row [ "insert_exemplars" ] > 0.0 && num row [ "query_exemplars" ] > 0.0
             then 1.0
             else 0.0);
          exact
            (Printf.sprintf "obs/%s/introspect_members" b)
            (num row [ "introspect"; "members" ]);
          exact
            (Printf.sprintf "obs/%s/introspect_routers" b)
            (num row [ "introspect"; "routers" ]);
        ]
      in
      if b = "tree" then structural
      else
        [
          gate
            (Printf.sprintf "obs/%s/insert_p99_rel_tree" b)
            (num row [ "insert_ns"; "p99" ] /. tree_insert)
            Lower_better 1.5;
          gate
            (Printf.sprintf "obs/%s/query_p99_rel_tree" b)
            (num row [ "query_ns"; "p99" ] /. tree_query)
            Lower_better 1.5;
        ]
        @ structural)
    backends
  @ obs_sketch_metrics doc @ obs_fleet_metrics doc

(* BENCH_resilience.json: deterministic in the seed (simulated clock, no
   wall time), so the tolerances are tight. *)
let resilience_metrics doc =
  rows doc "runs"
  |> List.concat_map (fun row ->
         let key =
           Printf.sprintf "resilience/%s/r%d" (str row [ "scenario" ])
             (int_of_float (num row [ "replicas" ]))
         in
         [
           gate (key ^ "/completion_rate") (num row [ "completion_rate" ]) Higher_better 0.02;
           gate (key ^ "/join_p99_ms") (num row [ "join_p99_ms" ]) Lower_better 0.15;
           flag (key ^ "/consistent") (boolean row [ "consistent" ]);
         ])

let load_metrics doc =
  rows doc "runs"
  |> List.concat_map (fun row ->
         let key =
           Printf.sprintf "load/%s/%s" (str row [ "arrival" ]) (str row [ "policy" ])
         in
         [
           gate (key ^ "/completion_rate") (num row [ "completion_rate" ]) Higher_better 0.02;
           gate (key ^ "/join_p99_ms") (num row [ "join_p99_ms" ]) Lower_better 0.15;
           gate (key ^ "/goodput_per_s") (num row [ "goodput_per_s" ]) Higher_better 0.1;
           gate (key ^ "/shed_fraction") (num row [ "shed_fraction" ]) Lower_better 0.2;
           (* The headline bit: under the flash crowd the SLO shedder holds
              the admitted p99 inside the budget, drop-tail does not. *)
           flag (key ^ "/p99_within_budget") (boolean row [ "p99_within_budget" ]);
           flag (key ^ "/sheds_when_saturated")
             (num row [ "saturation" ] > 1.0 = (num row [ "shed_fraction" ] > 0.0));
         ])

(* BENCH_wire.json: byte counts on the simulated wire are pure functions
   of the seed — no wall clock anywhere — so everything gates tightly.
   The structural bits (accounting reconciles, amplification equals the
   replica count, batching actually saves upload bytes) are exact. *)
let wire_metrics doc =
  let w path = num doc ("wire" :: path) in
  [
    gate "wire/completion_rate" (w [ "completion_rate" ]) Higher_better 0.02;
    gate "wire/bytes_per_join" (w [ "bytes_per_join" ]) Lower_better 0.1;
    gate "wire/bytes_per_query" (w [ "bytes_per_query" ]) Lower_better 0.1;
    exact "wire/replication_amplification" (w [ "replication_amplification" ]);
    gate "wire/snapshot_bytes_per_join"
      (w [ "snapshot_bytes" ] /. Float.max 1.0 (w [ "joins" ]))
      Lower_better 0.5;
    gate "wire/batch_saving_ratio" (w [ "batch_saving_ratio" ]) Higher_better 0.05;
    flag "wire/batch_saves_bytes" (w [ "batch_saving_ratio" ] > 1.0);
    flag "wire/accounted" (boolean doc [ "wire"; "accounted" ]);
  ]

let health_metrics doc =
  let h path = num doc ("health" :: path) in
  [
    gate "health/completion_rate" (h [ "completion_rate" ]) Higher_better 0.02;
    (* Structural: the loss burst must produce at least one detected
       divergence episode, and every episode must close. *)
    flag "health/divergence_detected" (h [ "divergence_episodes" ] > 0.0);
    flag "health/episodes_closed" (h [ "divergence_episodes" ] = h [ "convergence_episodes" ]);
    flag "health/converged" (boolean doc [ "health"; "converged" ]);
    gate "health/detection_latency_ms" (h [ "detection_latency_ms" ]) Lower_better 0.5;
    gate "health/lag_p50_ms" (h [ "lag_p50_ms" ]) Lower_better 0.5;
    gate "health/report_age_p50_ms" (h [ "report_age_p50_ms" ]) Lower_better 0.25;
    flag "health/digest_gate_saves_transfers" (h [ "sync_skipped" ] > 0.0);
  ]

(* --- Comparison -------------------------------------------------------- *)

let within (m : metric) ~baseline ~current =
  match m.direction with
  | Exact -> current = baseline
  | Higher_better -> current >= baseline *. (1.0 -. m.tolerance)
  | Lower_better -> current <= baseline *. (1.0 +. m.tolerance)

(* [baseline]/[current] are the same extractor applied to the two
   documents; direction and tolerance are taken from the baseline side so
   a tolerance edit gates from the commit that updates the baseline.  A
   skip is taken from the current side: it describes the machine that
   just ran. *)
let compare_metrics ~baseline ~current =
  List.map
    (fun (b : metric) ->
      let compared current status = { name = b.name; baseline = b.value; current; status } in
      match List.find_opt (fun (c : metric) -> c.name = b.name) current with
      | None -> compared None Fail
      | Some { skip = Some reason; value; _ } -> compared (Some value) (Skipped reason)
      | Some c ->
          compared (Some c.value)
            (if within b ~baseline:b.value ~current:c.value then Pass else Fail))
    baseline

let failures comparisons = List.filter (fun c -> c.status = Fail) comparisons

let print comparisons =
  Prelude.Table.print
    ~header:[ "metric"; "baseline"; "current"; "status" ]
    (List.map
       (fun c ->
         [
           c.name;
           Prelude.Table.float_cell ~decimals:4 c.baseline;
           (match c.current with
           | Some v -> Prelude.Table.float_cell ~decimals:4 v
           | None -> "MISSING");
           (match c.status with
           | Pass -> "ok"
           | Fail -> "FAIL"
           | Skipped reason -> "skipped: " ^ reason);
         ])
       comparisons)
