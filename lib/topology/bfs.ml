let distances g src =
  let n = Graph.node_count g in
  let dist = Array.make n max_int in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    let du = dist.(u) in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- du + 1;
          Queue.add v queue
        end)
  done;
  dist

let distance g src dst =
  if src = dst then 0
  else begin
    let n = Graph.node_count g in
    let dist = Array.make n max_int in
    dist.(src) <- 0;
    let queue = Queue.create () in
    Queue.add src queue;
    let result = ref max_int in
    (try
       while not (Queue.is_empty queue) do
         let u = Queue.take queue in
         let du = dist.(u) in
         Graph.iter_neighbors g u (fun v ->
             if dist.(v) = max_int then begin
               dist.(v) <- du + 1;
               if v = dst then begin
                 result := du + 1;
                 raise Exit
               end;
               Queue.add v queue
             end)
       done
     with Exit -> ());
    !result
  end

let distances_within g src radius =
  let n = Graph.node_count g in
  let dist = Array.make n max_int in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  let acc = ref [ (src, 0) ] in
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    let du = dist.(u) in
    if du < radius then
      Graph.iter_neighbors g u (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- du + 1;
            acc := (v, du + 1) :: !acc;
            Queue.add v queue
          end)
  done;
  List.rev !acc

(* One pass fills both arrays: a node's depth is set at its discovery,
   which also marks it seen. *)
let tree g src =
  (* Neighbor slices are sorted by id, so first-discovery order is
     deterministic: the lowest-id shortest-path tree. *)
  let n = Graph.node_count g in
  let parent = Array.make n (-1) in
  let depth = Array.make n max_int in
  depth.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    let du = depth.(u) + 1 in
    Graph.iter_neighbors g u (fun v ->
        if depth.(v) = max_int then begin
          depth.(v) <- du;
          parent.(v) <- u;
          Queue.add v queue
        end)
  done;
  (parent, depth)

let path_to ~parents ~src v =
  if v = src then [ src ]
  else if parents.(v) = -1 then []
  else begin
    let rec climb v acc = if v = src then src :: acc else climb parents.(v) (v :: acc) in
    climb v []
  end

let eccentricity g src =
  let dist = distances g src in
  Array.fold_left (fun acc d -> if d <> max_int && d > acc then d else acc) 0 dist

let mean_pairwise_distance g ~samples ~rng =
  let n = Graph.node_count g in
  if n < 2 || samples <= 0 then 0.0
  else begin
    let acc = ref 0.0 and counted = ref 0 in
    for _ = 1 to samples do
      let src = Prelude.Prng.int rng n in
      let dst = Prelude.Prng.int rng n in
      if src <> dst then begin
        let d = distance g src dst in
        if d <> max_int then begin
          acc := !acc +. float_of_int d;
          incr counted
        end
      end
    done;
    if !counted = 0 then 0.0 else !acc /. float_of_int !counted
  end
