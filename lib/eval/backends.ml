(* Registry backend selection shared by the CLI, the experiments and the
   benchmarks: one spec string -> one first-class backend module. *)

type spec =
  | Tree  (** The paper's path tree ({!Nearby.Path_tree}). *)
  | Naive  (** Exhaustive-scan strawman ({!Nearby.Naive_registry}). *)
  | Dht  (** Chord-distributed directory ({!Dht.Registry}). *)
  | Sharded of { shards : int }
      (** Hash-partitioned path trees ({!Nearby.Sharded_registry}). *)

let to_string = function
  | Tree -> "tree"
  | Naive -> "naive"
  | Dht -> "dht"
  | Sharded { shards } -> Printf.sprintf "sharded:%d" shards

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "tree" -> Ok Tree
  | "naive" -> Ok Naive
  | "dht" -> Ok Dht
  | "sharded" -> Ok (Sharded { shards = 4 })
  | spec -> (
      match String.index_opt spec ':' with
      | Some i when String.sub spec 0 i = "sharded" -> (
          let arg = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt arg with
          | Some shards when shards >= 1 -> Ok (Sharded { shards })
          | Some _ | None ->
              Error (Printf.sprintf "bad shard count %S (want sharded:N, N >= 1)" arg))
      | _ ->
          Error
            (Printf.sprintf "unknown backend %S (expected tree, naive, dht or sharded:N)" s))

(* The sweep axis: every backend, sharded at the benchmark's default width. *)
let all = [ Tree; Naive; Dht; Sharded { shards = 4 } ]

let backend : spec -> (module Nearby.Registry_intf.S) = function
  | Tree -> (module Nearby.Path_tree)
  | Naive -> (module Nearby.Naive_registry)
  | Dht -> Dht.Registry.backend ()
  | Sharded { shards } -> Nearby.Sharded_registry.make ~shards ()
