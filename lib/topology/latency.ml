type model =
  | Uniform of { lo : float; hi : float }
  | Core_weighted of { core_ms : float; edge_ms : float; threshold : int }
  | Hop_count

type t = { table : (int * int, float) Hashtbl.t }

let key u v = if u < v then (u, v) else (v, u)

let assign g model ~seed =
  let rng = Prelude.Prng.create seed in
  let table = Hashtbl.create (2 * Graph.edge_count g) in
  List.iter
    (fun (u, v) ->
      let latency =
        match model with
        | Hop_count -> 1.0
        | Uniform { lo; hi } ->
            if hi < lo then invalid_arg "Latency.assign: hi < lo";
            lo +. Prelude.Prng.float rng (hi -. lo)
        | Core_weighted { core_ms; edge_ms; threshold } ->
            let mean = if Graph.degree g u >= threshold && Graph.degree g v >= threshold then core_ms else edge_ms in
            (* Exponential with a small floor so no link is free. *)
            0.1 +. Prelude.Prng.exponential rng ~mean
      in
      Hashtbl.replace table (key u v) latency)
    (Graph.edges g);
  { table }

let get t u v =
  match Hashtbl.find_opt t.table (key u v) with
  | Some l -> l
  | None -> raise Not_found

let weight_fn t u v = get t u v

let path_latency t routers =
  let acc = ref 0.0 in
  for i = 1 to Array.length routers - 1 do
    acc := !acc +. get t routers.(i - 1) routers.(i)
  done;
  !acc
