type scored = { name : string; total_d : int; ratio : float; hit_ratio : float }

type outcome = {
  total_d_closest : int;
  optimal_sets : int array array;
  scored : scored list;
}

let unreachable_cost = max_int / 4

let score (ctx : Nearby.Selector.context) ~k ~named_sets =
  let n = Array.length ctx.peer_routers in
  List.iter
    (fun (name, sets) ->
      if Array.length sets <> n then
        invalid_arg (Printf.sprintf "Measure.score: selector %S has %d sets for %d peers" name (Array.length sets) n))
    named_sets;
  let optimal_sets = Array.make n [||] in
  let d_closest = ref 0 in
  let totals = Array.make (List.length named_sets) 0 in
  let hits = Array.make (List.length named_sets) 0.0 in
  for p = 0 to n - 1 do
    let dist = Topology.Bfs.distances ctx.graph ctx.peer_routers.(p) in
    let to_peer j =
      let d = dist.(ctx.peer_routers.(j)) in
      if d = max_int then unreachable_cost else d
    in
    (* Optimal set: k other peers at smallest distance, (distance, id) order. *)
    let ids = Array.init n (fun j -> j) in
    Array.sort (fun a b -> compare (to_peer a, a) (to_peer b, b)) ids;
    let opt = Array.make (min k (n - 1)) 0 in
    let taken = ref 0 and cursor = ref 0 in
    while !taken < Array.length opt do
      let j = ids.(!cursor) in
      incr cursor;
      if j <> p then begin
        opt.(!taken) <- j;
        incr taken
      end
    done;
    optimal_sets.(p) <- opt;
    Array.iter (fun j -> d_closest := !d_closest + to_peer j) opt;
    let opt_members = Hashtbl.create (Array.length opt) in
    Array.iter (fun j -> Hashtbl.replace opt_members j ()) opt;
    List.iteri
      (fun idx (_, sets) ->
        let inter = ref 0 in
        Array.iter
          (fun j ->
            totals.(idx) <- totals.(idx) + to_peer j;
            if Hashtbl.mem opt_members j then incr inter)
          sets.(p);
        if Array.length opt > 0 then
          hits.(idx) <- hits.(idx) +. (float_of_int !inter /. float_of_int (Array.length opt)))
      named_sets
  done;
  let scored =
    List.mapi
      (fun idx (name, _) ->
        {
          name;
          total_d = totals.(idx);
          ratio =
            (if !d_closest = 0 then if totals.(idx) = 0 then 1.0 else infinity
             else float_of_int totals.(idx) /. float_of_int !d_closest);
          hit_ratio = (if n = 0 then 1.0 else hits.(idx) /. float_of_int n);
        })
      named_sets
  in
  { total_d_closest = !d_closest; optimal_sets; scored }

(* --- Load split -------------------------------------------------------- *)

let landmark_members server =
  let landmarks = Nearby.Server.landmarks server in
  let counts = Array.make (Array.length landmarks) 0 in
  List.iter
    (fun peer ->
      let info = Option.get (Nearby.Server.info server peer) in
      let i = Option.get (Array.find_index (Int.equal info.landmark) landmarks) in
      counts.(i) <- counts.(i) + 1)
    (Nearby.Server.peer_ids server);
  Array.to_list counts

let max_over_mean counts =
  let total = List.fold_left ( + ) 0 counts in
  if total = 0 then 1.0
  else
    float_of_int (List.fold_left max 0 counts)
    /. (float_of_int total /. float_of_int (List.length counts))
