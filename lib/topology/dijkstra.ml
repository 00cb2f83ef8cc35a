let check_weight w = if w < 0.0 then invalid_arg "Dijkstra: negative edge weight"

let relax_all g ~weight src ~on_settle =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let settled = Prelude.Bitset.create n in
  let heap = Prelude.Pqueue.create () in
  dist.(src) <- 0.0;
  Prelude.Pqueue.push heap ~priority:0.0 src;
  let continue = ref true in
  while !continue do
    match Prelude.Pqueue.pop heap with
    | None -> continue := false
    | Some (d, u) ->
        if not (Prelude.Bitset.mem settled u) then begin
          Prelude.Bitset.add settled u;
          if on_settle u d then
            Graph.iter_neighbors g u (fun v ->
                let w = weight u v in
                check_weight w;
                let alt = d +. w in
                if alt < dist.(v) then begin
                  dist.(v) <- alt;
                  Prelude.Pqueue.push heap ~priority:alt v
                end)
          else continue := false
        end
  done;
  dist

let distances g ~weight src = relax_all g ~weight src ~on_settle:(fun _ _ -> true)

let distance g ~weight src dst =
  if src = dst then 0.0
  else begin
    let result = ref infinity in
    let (_ : float array) =
      relax_all g ~weight src ~on_settle:(fun u d ->
          if u = dst then begin
            result := d;
            false
          end
          else true)
    in
    !result
  end

(* A node's depth is fixed when it settles, from its parent's (settled
   earlier); [depth] doubles as the settled set.  A settled node is never
   relaxed again, so its parent -- and with it every depth -- stays final.
   With positive weights that guard changes nothing (a settled node is no
   farther than the one being expanded); with zero weights it keeps an
   equal-distance tie from re-parenting a settled node into a cycle. *)
let tree g ~weight src =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let depth = Array.make n max_int in
  let heap = Prelude.Pqueue.create () in
  dist.(src) <- 0.0;
  Prelude.Pqueue.push heap ~priority:0.0 src;
  let continue = ref true in
  while !continue do
    match Prelude.Pqueue.pop heap with
    | None -> continue := false
    | Some (d, u) ->
        if depth.(u) = max_int then begin
          depth.(u) <- (if u = src then 0 else depth.(parent.(u)) + 1);
          Graph.iter_neighbors g u (fun v ->
              let w = weight u v in
              check_weight w;
              let alt = d +. w in
              if depth.(v) = max_int && (alt < dist.(v) || (alt = dist.(v) && parent.(v) > u))
              then begin
                dist.(v) <- alt;
                parent.(v) <- u;
                Prelude.Pqueue.push heap ~priority:alt v
              end)
        end
  done;
  (parent, depth)
