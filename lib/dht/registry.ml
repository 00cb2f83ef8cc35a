(* The decentralized directory as a registry backend.

   [Directory] needs a ring of storage nodes at construction time, which
   [Registry_intf.S.create] does not provide, so the backend is produced by
   [backend]: a first-class module with the ring configuration baked in.
   Storage node ids live far above any peer id to keep the two spaces
   visibly apart in traces. *)

module type CONFIG = sig
  val nodes : int
  val virtual_nodes : int
end

module Make (Config : CONFIG) : Nearby.Registry_intf.S with type t = Directory.t = struct
  type t = Directory.t

  let backend_name = "dht"

  let storage_nodes () = Array.init Config.nodes (fun i -> 1_000_000 + i)

  let create ~landmark =
    if Config.nodes < 1 then invalid_arg "Dht.Registry: need at least one storage node";
    Directory.create ~virtual_nodes:Config.virtual_nodes ~landmark (storage_nodes ())

  let landmark = Directory.landmark
  let insert = Directory.insert
  let remove t peer = Directory.remove t ~peer
  let mem = Directory.mem
  let member_count = Directory.member_count
  let path_of = Directory.path_of
  let iter_members = Directory.iter_members

  (* The directory keeps router buckets on the storage nodes, reached by
     an overlay lookup each; replication does not pay for one. *)
  let member_through _ _ ~except:_ = -1
  let dtree = Directory.dtree
  let query = Directory.query
  let query_member = Directory.query_member

  (* Batches would fan out per storage node anyway; the derived loops are
     the honest cost model for the overlay. *)
  include Nearby.Registry_intf.Derive_batch (struct
    type nonrec t = t

    let landmark = landmark
    let mem = mem
    let insert = insert
  end)

  let stats t =
    let s = Directory.stats t in
    [
      ("dht_nodes", Directory.node_count t);
      ("lookups", s.Directory.lookups);
      ("members", member_count t);
      ("migrations", Directory.migrations t);
      ("overlay_hops", s.Directory.overlay_hops);
      ("routers", List.fold_left (fun acc (_, b) -> acc + b) 0 s.Directory.buckets_per_node);
    ]

  let introspect t =
    Nearby.Registry_intf.introspection_of_buckets ~members:(member_count t)
      ~approx_bytes:(Directory.approx_bytes t) (Directory.iter_buckets t)

  let check_invariants = Directory.check_invariants
end

let backend ?(nodes = 32) ?(virtual_nodes = 8) () : (module Nearby.Registry_intf.S) =
  (module Make (struct
    let nodes = nodes
    let virtual_nodes = virtual_nodes
  end) : Nearby.Registry_intf.S)
