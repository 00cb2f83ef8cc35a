(* The tiny bench/stack gates: see the interface. *)

let workloads = [ "join-steady"; "join-lossy"; "query-250k"; "flash-churn" ]

let metrics workload =
  [ "state_bytes_per_member"; "client_bytes_per_op"; "wire_bytes_per_op" ]
  @ if workload = "query-250k" then [] else [ "latency_p50_ms"; "latency_p99_ms" ]

let gates workload summary =
  let open Simkit.Json in
  let name what = Printf.sprintf "stack/%s/%s" workload what in
  let value m =
    Option.bind (path [ "metrics"; m; "value" ] summary) to_float |> Option.value ~default:Float.nan
  in
  Regression.flag (name "correct") (Option.bind (member "correct" summary) to_bool = Some true)
  :: Regression.flag (name "no_failed") (Option.bind (member "failed" summary) to_float = Some 0.0)
  :: List.map (fun m -> Regression.exact (name m) (value m)) (metrics workload)
