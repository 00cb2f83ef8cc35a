(* The paper's hop-count path tree: a thin wrapper over the cost-generic
   core, with cost = position in the recorded path. *)

module Core = Path_tree_core.Make (struct
  type t = int

  let zero = 0
  let add = ( + )
  let compare = Int.compare
  let blit = Path_tree_core.int_blit
end)

type peer = int
type t = Core.t

let create = Core.create
let landmark = Core.landmark
let member_count = Core.member_count
let mem = Core.mem
let router_count = Core.router_count

(* A hop cost is the router's position in the path, so one shared,
   read-only [0; 1; 2; ...] array is the cost array of every path up to its
   length; the core reads only the prefix a path needs. *)
let positions = Array.init 256 Fun.id

let costs_for routers =
  let len = Array.length routers in
  if len <= Array.length positions then positions else Array.init len Fun.id

let insert t ~peer ~routers = Core.insert_path t ~peer ~routers ~costs:(costs_for routers)
let remove = Core.remove
let path_of = Core.routers_of
let depth t peer = Option.map (fun r -> Array.length r - 1) (Core.routers_of t peer)
let meeting_point = Core.meeting_point
let dtree = Core.dtree

let query t ~routers ~k ?exclude () =
  Core.query_path t ~routers ~costs:(costs_for routers) ~k ?exclude ()

let query_member t ~peer ~k = Core.query_member t ~peer ~k

include Registry_intf.Derive_batch (struct
  type nonrec t = t

  let landmark = landmark
  let mem = mem
  let insert = insert
end)

let iter_members = Core.iter_members
let check_invariants = Core.check_invariants

(* --- Registry_intf.S ---------------------------------------------------- *)

let backend_name = "tree"
let stats t = [ ("members", member_count t); ("routers", router_count t) ]

let introspect t =
  Registry_intf.introspection_of_buckets ~members:(member_count t)
    ~approx_bytes:(Core.approx_bytes t) (Core.iter_buckets t)
