(* The integer-cost core with link latencies in microseconds, converted
   from and to milliseconds at this API. *)

module Core = Path_tree_core

type t = Core.t
type peer = int

let create = Core.create
let member_count = Core.member_count
let mem = Core.mem
let router_count = Core.router_count
let remove = Core.remove
let check_invariants = Core.check_invariants

let us_of_ms ms =
  let us = Float.round (ms *. 1000.0) in
  if us >= 0.0 && us < float_of_int Topk.cost_limit then int_of_float us
  else invalid_arg "Latency_tree: cost out of range"

let ms_of_us us = float_of_int us /. 1000.0
let routers hops = Array.map fst hops
let costs hops = Array.map (fun (_, ms) -> us_of_ms ms) hops
let answer_ms = List.map (fun (peer, us) -> (peer, ms_of_us us))
let insert t ~peer ~hops = Core.insert_path t ~peer ~routers:(routers hops) ~costs:(costs hops)

let meeting_point t p1 p2 =
  Option.map (fun (r, c1, c2) -> (r, ms_of_us c1, ms_of_us c2)) (Core.meeting_point t p1 p2)

let dtree t p1 p2 = Option.map ms_of_us (Core.dtree t p1 p2)

let query t ~hops ~k ?exclude () =
  answer_ms (Core.query_path t ~routers:(routers hops) ~costs:(costs hops) ~k ?exclude ())

let query_member t ~peer ~k = answer_ms (Core.query_member t ~peer ~k)

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
