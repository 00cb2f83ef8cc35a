type policy = Uniform_random | Medium_degree | High_degree | Spread | Optimized

let all_policies = [ Uniform_random; Medium_degree; High_degree; Spread; Optimized ]

let policy_name = function
  | Uniform_random -> "random"
  | Medium_degree -> "medium"
  | High_degree -> "high"
  | Spread -> "spread"
  | Optimized -> "optimized"

let policy_of_string = function
  | "random" -> Some Uniform_random
  | "medium" -> Some Medium_degree
  | "high" -> Some High_degree
  | "spread" -> Some Spread
  | "optimized" -> Some Optimized
  | _ -> None

let pick_distinct rng pool count =
  if count > Array.length pool then
    invalid_arg "Landmark.place: not enough candidate routers";
  let idx = Prelude.Prng.sample_without_replacement rng ~k:count ~n:(Array.length pool) in
  Array.map (fun i -> pool.(i)) idx

let degree_band g ~lo_pct ~hi_pct =
  (* Band bounds computed over routers that are not pure attachment leaves
     (degree >= 2); leaves are where peers live, not where one deploys
     infrastructure. *)
  let candidates = Topology.Graph.nodes_matching g (fun _ d -> d >= 2) in
  let degrees = Array.of_list (List.map (fun v -> float_of_int (Topology.Graph.degree g v)) candidates) in
  if Array.length degrees = 0 then [||]
  else begin
    let lo = Prelude.Stats.percentile degrees lo_pct and hi = Prelude.Stats.percentile degrees hi_pct in
    Array.of_list
      (List.filter
         (fun v ->
           let d = float_of_int (Topology.Graph.degree g v) in
           d >= lo && d <= hi)
         candidates)
  end

let place g policy ~count ~rng =
  if count < 1 then invalid_arg "Landmark.place: count must be >= 1";
  match policy with
  | Uniform_random ->
      pick_distinct rng (Array.init (Topology.Graph.node_count g) (fun v -> v)) count
  | Medium_degree ->
      let band = degree_band g ~lo_pct:50.0 ~hi_pct:85.0 in
      let band = if Array.length band >= count then band else degree_band g ~lo_pct:25.0 ~hi_pct:95.0 in
      pick_distinct rng band count
  | High_degree ->
      let scores = Array.init (Topology.Graph.node_count g) (fun v -> float_of_int (Topology.Graph.degree g v)) in
      Array.of_list (Topology.Centrality.top_by scores count)
  | Optimized -> Placement_opt.place g ~count ~rng
  | Spread ->
      let n = Topology.Graph.node_count g in
      if count > n then invalid_arg "Landmark.place: not enough routers";
      let scores = Array.init n (fun v -> float_of_int (Topology.Graph.degree g v)) in
      let first = match Topology.Centrality.top_by scores 1 with [ v ] -> v | _ -> 0 in
      let chosen = ref [ first ] in
      let min_dist = Array.map (fun d -> if d = max_int then max_int else d) (Topology.Bfs.distances g first) in
      for _ = 2 to count do
        (* Farthest-point heuristic; ties toward the lower id. *)
        let best = ref (-1) and best_d = ref (-1) in
        for v = 0 to n - 1 do
          if (not (List.mem v !chosen)) && min_dist.(v) <> max_int && min_dist.(v) > !best_d then begin
            best := v;
            best_d := min_dist.(v)
          end
        done;
        let next = if !best = -1 then Prelude.Prng.int rng n else !best in
        chosen := next :: !chosen;
        let dist_next = Topology.Bfs.distances g next in
        for v = 0 to n - 1 do
          if dist_next.(v) < min_dist.(v) then min_dist.(v) <- dist_next.(v)
        done
      done;
      Array.of_list (List.rev !chosen)

let closest oracle ?latency ?rng ~landmarks router =
  if Array.length landmarks = 0 then invalid_arg "Landmark.closest: no landmarks";
  Traceroute.Probe.closest ?latency ?rng oracle ~src:router landmarks
