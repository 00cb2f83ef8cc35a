(* The paper's hop-count path tree: the integer-cost core, with cost =
   position in the recorded path. *)

include Path_tree_core

(* A hop cost is the router's position in the path, so one shared,
   read-only [0; 1; 2; ...] array is the cost array of every path up to its
   length; the core reads only the prefix a path needs. *)
let positions = Array.init 256 Fun.id

let costs_for routers =
  let len = Array.length routers in
  if len <= Array.length positions then positions else Array.init len Fun.id

let insert t ~peer ~routers = insert_path t ~peer ~routers ~costs:(costs_for routers)
let path_of = routers_of
let depth t peer = Option.map (fun r -> Array.length r - 1) (routers_of t peer)
let query t ~routers ~k ?exclude () = query_path t ~routers ~costs:(costs_for routers) ~k ?exclude ()

include Registry_intf.Derive_batch (struct
  type nonrec t = t

  let landmark = landmark
  let mem = mem
  let insert = insert
end)

(* --- Registry_intf.S ---------------------------------------------------- *)

let backend_name = "tree"
let stats t = [ ("members", member_count t); ("routers", router_count t) ]

let introspect t =
  Registry_intf.introspection_of_buckets ~members:(member_count t) ~approx_bytes:(approx_bytes t)
    (iter_buckets t)
