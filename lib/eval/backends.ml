(* Registry backend selection shared by the CLI, the experiments and the
   benchmarks: one spec string -> one first-class backend module. *)

type spec =
  | Tree  (** The paper's path tree ({!Nearby.Path_tree}). *)
  | Naive  (** Exhaustive-scan strawman ({!Nearby.Naive_registry}). *)
  | Dht  (** Chord-distributed directory ({!Dht.Registry}). *)

let to_string = function Tree -> "tree" | Naive -> "naive" | Dht -> "dht"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "tree" -> Ok Tree
  | "naive" -> Ok Naive
  | "dht" -> Ok Dht
  | _ -> Error (Printf.sprintf "unknown backend %S (expected tree, naive or dht)" s)

(* The sweep axis: every backend. *)
let all = [ Tree; Naive; Dht ]

let backend : spec -> (module Nearby.Registry_intf.S) = function
  | Tree -> (module Nearby.Path_tree)
  | Naive -> (module Nearby.Naive_registry)
  | Dht -> Dht.Registry.backend ()
