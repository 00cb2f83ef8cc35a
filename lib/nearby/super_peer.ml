(* Per-landmark super-peer delegation (extension E2).

   Each region holds its landmark's path tree plus the join/query load
   counters a delegated super-peer would report. *)

type region = {
  landmark : Topology.Graph.node;
  super_router : Topology.Graph.node;
  tree : Path_tree.t;
  mutable joins_handled : int;
  mutable queries_handled : int;
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
          tree = Path_tree.create ~landmark:landmarks.(i);
          joins_handled = 0;
          queries_handled = 0;
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
  Path_tree.insert region.tree ~peer ~routers;
  region.joins_handled <- region.joins_handled + 1;
  Hashtbl.add t.directory peer region;
  lmk

let neighbors t ~peer ~k =
  match Hashtbl.find_opt t.directory peer with
  | None -> raise Not_found
  | Some region ->
      region.queries_handled <- region.queries_handled + 1;
      Path_tree.query_member region.tree ~peer ~k

let leave t ~peer =
  match Hashtbl.find_opt t.directory peer with
  | None -> raise Not_found
  | Some region ->
      Path_tree.remove region.tree peer;
      Hashtbl.remove t.directory peer

let peer_count t = Hashtbl.length t.directory

let loads t =
  Array.to_list
    (Array.map
       (fun (r : region) ->
         {
           landmark = r.landmark;
           super_router = r.super_router;
           members = Path_tree.member_count r.tree;
           joins_handled = r.joins_handled;
           queries_handled = r.queries_handled;
         })
       t.regions)

let load_imbalance t =
  let members =
    Array.map (fun (r : region) -> float_of_int (Path_tree.member_count r.tree)) t.regions
  in
  let total = Array.fold_left ( +. ) 0.0 members in
  if total = 0.0 then 0.0
  else begin
    let mean = total /. float_of_int (Array.length members) in
    Array.fold_left Float.max 0.0 members /. mean
  end
