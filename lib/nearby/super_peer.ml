(* Per-landmark super-peer delegation (extension E2).

   The region store is the [Registry] adapter below: one path tree plus the
   join/query load counters a delegated super-peer would report.  It
   implements [Registry_intf.S], so a "super" region store can also back
   the central server or any experiment through the shared seam. *)

module Registry = struct
  type t = {
    tree : Path_tree.t;
    mutable joins_handled : int;
    mutable queries_handled : int;
  }

  let backend_name = "super"

  let create ~landmark =
    { tree = Path_tree.create ~landmark; joins_handled = 0; queries_handled = 0 }

  let landmark t = Path_tree.landmark t.tree

  let insert t ~peer ~routers =
    Path_tree.insert t.tree ~peer ~routers;
    t.joins_handled <- t.joins_handled + 1

  let remove t peer = Path_tree.remove t.tree peer
  let mem t peer = Path_tree.mem t.tree peer
  let member_count t = Path_tree.member_count t.tree
  let path_of t peer = Path_tree.path_of t.tree peer
  let iter_members t f = Path_tree.iter_members t.tree f
  let dtree t p1 p2 = Path_tree.dtree t.tree p1 p2

  let query t ~routers ~k ?exclude () =
    t.queries_handled <- t.queries_handled + 1;
    Path_tree.query t.tree ~routers ~k ?exclude ()

  let query_member t ~peer ~k =
    t.queries_handled <- t.queries_handled + 1;
    Path_tree.query_member t.tree ~peer ~k

  (* Native batches delegate to the tree's; the load counters advance by
     the batch size so delegation accounting matches looped singletons. *)
  let insert_many t entries =
    Path_tree.insert_many t.tree entries;
    t.joins_handled <- t.joins_handled + Array.length entries

  let query_many t ~queries ~k ?exclude () =
    t.queries_handled <- t.queries_handled + Array.length queries;
    Path_tree.query_many t.tree ~queries ~k ?exclude ()

  let query_into t ~routers ~best ~exclude =
    t.queries_handled <- t.queries_handled + 1;
    Path_tree.query_into t.tree ~routers ~best ~exclude

  let stats t =
    [
      ("joins_handled", t.joins_handled);
      ("members", member_count t);
      ("queries_handled", t.queries_handled);
      ("routers", Path_tree.router_count t.tree);
    ]

  let introspect t = Path_tree.introspect t.tree
  let digest t = Path_tree.digest t.tree
  let check_invariants t = Path_tree.check_invariants t.tree

  let snapshot_version = 1

  let snapshot t =
    let w = Prelude.Codec.Writer.create ~capacity:1024 () in
    let open Prelude.Codec.Writer in
    u8 w snapshot_version;
    varint w t.joins_handled;
    varint w t.queries_handled;
    bytes w (Path_tree.snapshot t.tree);
    contents w

  let restore data =
    let open Prelude.Codec.Reader in
    let ( let* ) = Result.bind in
    let r = of_string data in
    let result =
      let* version = u8 r in
      if version <> snapshot_version then
        Error (Malformed (Printf.sprintf "unsupported registry snapshot version %d" version))
      else
        let* joins_handled = varint r in
        let* queries_handled = varint r in
        let* tree_blob = bytes r in
        if not (is_exhausted r) then Error (Malformed "trailing bytes")
        else Ok (joins_handled, queries_handled, tree_blob)
    in
    match result with
    | Error e -> Error (error_to_string e)
    | Ok (joins_handled, queries_handled, tree_blob) -> (
        match Path_tree.restore tree_blob with
        | Error e -> Error e
        | Ok tree -> Ok { tree; joins_handled; queries_handled })
end

type region = {
  landmark : Topology.Graph.node;
  super_router : Topology.Graph.node;
  store : Registry.t;
}

type region_load = {
  landmark : Topology.Graph.node;
  super_router : Topology.Graph.node;
  members : int;
  joins_handled : int;
  queries_handled : int;
}

type t = {
  oracle : Traceroute.Route_oracle.t;
  latency : Topology.Latency.t option;
  truncate : Traceroute.Truncate.strategy;
  regions : region array;
  by_landmark : (Topology.Graph.node, region) Hashtbl.t;
  directory : (int, region) Hashtbl.t;  (* peer -> home region *)
}

let create ?(truncate = Traceroute.Truncate.Full) ?latency oracle ~landmarks ~super_routers =
  let n = Array.length landmarks in
  if n = 0 then invalid_arg "Super_peer.create: no landmarks";
  if Array.length super_routers <> n then
    invalid_arg "Super_peer.create: need one super router per landmark";
  let regions : region array =
    Array.init n (fun i ->
        {
          landmark = landmarks.(i);
          super_router = super_routers.(i);
          store = Registry.create ~landmark:landmarks.(i);
        })
  in
  let by_landmark = Hashtbl.create n in
  Array.iter (fun (r : region) -> Hashtbl.add by_landmark r.landmark r) regions;
  { oracle; latency; truncate; regions; by_landmark; directory = Hashtbl.create 256 }

let landmark_ids t = Array.map (fun (r : region) -> r.landmark) t.regions

let join ?rng t ~peer ~attach_router =
  if Hashtbl.mem t.directory peer then invalid_arg "Super_peer.join: peer already registered";
  let lmk, _ =
    Landmark.closest t.oracle ?latency:t.latency ?rng ~landmarks:(landmark_ids t) attach_router
  in
  let region = Hashtbl.find t.by_landmark lmk in
  let probe = Traceroute.Probe.run ?latency:t.latency ?rng t.oracle ~src:attach_router ~dst:lmk in
  let reduced =
    Traceroute.Truncate.apply ~graph:(Traceroute.Route_oracle.graph t.oracle) t.truncate probe.path
  in
  let routers = Traceroute.Path.known_routers reduced in
  let routers =
    let n = Array.length routers in
    if n > 0 && routers.(n - 1) = lmk then routers else Array.append routers [| lmk |]
  in
  Registry.insert region.store ~peer ~routers;
  Hashtbl.add t.directory peer region;
  lmk

let neighbors t ~peer ~k =
  match Hashtbl.find_opt t.directory peer with
  | None -> raise Not_found
  | Some region -> Registry.query_member region.store ~peer ~k

let leave t ~peer =
  match Hashtbl.find_opt t.directory peer with
  | None -> raise Not_found
  | Some region ->
      Registry.remove region.store peer;
      Hashtbl.remove t.directory peer

let peer_count t = Hashtbl.length t.directory

let loads t =
  Array.to_list
    (Array.map
       (fun (r : region) ->
         {
           landmark = r.landmark;
           super_router = r.super_router;
           members = Registry.member_count r.store;
           joins_handled = r.store.Registry.joins_handled;
           queries_handled = r.store.Registry.queries_handled;
         })
       t.regions)

let load_imbalance t =
  let members =
    Array.map (fun (r : region) -> float_of_int (Registry.member_count r.store)) t.regions
  in
  let total = Array.fold_left ( +. ) 0.0 members in
  if total = 0.0 then 0.0
  else begin
    let mean = total /. float_of_int (Array.length members) in
    Array.fold_left Float.max 0.0 members /. mean
  end
