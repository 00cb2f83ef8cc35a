include Path_tree_core.Make (struct
  type t = float

  let zero = 0.0
  let add = ( +. )
  let compare = Float.compare
  let blit = Array.blit
end)

let hops_of_route ~latency route =
  let rec build prev acc_cost acc = function
    | [] -> List.rev acc
    | router :: rest ->
        let cost =
          match prev with
          | None -> 0.0
          | Some p -> acc_cost +. Topology.Latency.get latency p router
        in
        build (Some router) cost ((router, cost) :: acc) rest
  in
  Array.of_list (build None 0.0 [] route)
