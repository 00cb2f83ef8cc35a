(* A timing wrapper over any registry backend, owned by the benchmark so
   that measuring the registry does not go through the library's own
   instrumentation middleware (whose observe path is itself a target of
   optimisation).  Only the calls whose cost grows with the population
   are wrapped; the O(1) accessors pass straight through. *)

module Make (B : Nearby.Registry_intf.S) : Nearby.Registry_intf.S = struct
  include B

  let insert t ~peer ~routers = Prof.span Prof.registry_insert (fun () -> B.insert t ~peer ~routers)

  let insert_many t entries =
    Prof.add_entries Prof.registry_insert_many (Array.length entries);
    Prof.span Prof.registry_insert_many (fun () -> B.insert_many t entries)

  let remove t peer = Prof.span Prof.registry_remove (fun () -> B.remove t peer)

  let query t ~routers ~k ?exclude () =
    Prof.span Prof.registry_query (fun () -> B.query t ~routers ~k ?exclude ())

  let query_member t ~peer ~k =
    Prof.span Prof.registry_query (fun () -> B.query_member t ~peer ~k)
end

module Tree = Make (Nearby.Path_tree)

let backend ~timed : (module Nearby.Registry_intf.S) =
  if timed then (module Tree) else (module Nearby.Path_tree)
