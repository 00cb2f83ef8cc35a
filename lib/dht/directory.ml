module Top_k = Nearby.Topk

module Bucket = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type stats = {
  lookups : int;
  overlay_hops : int;
  buckets_per_node : (int * int) list;
}

type node_store = { mutable buckets : (int, Bucket.t ref) Hashtbl.t }

(* A query's walk while it scans one bucket.  [offer_entry] is the one
   closure over it, built with the directory, so a scan builds none. *)
type scan = { mutable walk_cost : int; mutable best : Top_k.t; mutable exclude : int -> bool }

type t = {
  landmark : Topology.Graph.node;
  mutable ring : Chord.t;
  mutable ring_members : int array;  (* [Chord.members ring] *)
  virtual_nodes : int option;
  stores : (int, node_store) Hashtbl.t;  (* dht node -> its shard *)
  paths : (int, int array) Hashtbl.t;  (* peer -> registered path *)
  mutable lookups : int;
  mutable overlay_hops : int;
  mutable migrated : int;
  (* The requester-side entry point rotates round robin, as a real client
     would pick a random known ring member. *)
  mutable entry_cursor : int;
  scan : scan;
  offer_entry : int * int -> unit;
}

let no_exclusion _ = false

(* Offer a bucket entry at the scan's walk cost; stop the bucket's
   iteration at the first that cannot enter. *)
let offer_entry scan (dist, peer) =
  if
    not
      (Top_k.offer_new scan.best (Top_k.pack ~cost:(scan.walk_cost + dist) ~peer)
         ~exclude:scan.exclude)
  then raise_notrace Exit

let create ?virtual_nodes ~landmark dht_nodes =
  let ring = Chord.build ?virtual_nodes dht_nodes in
  let stores = Hashtbl.create (Array.length dht_nodes) in
  Array.iter (fun node -> Hashtbl.add stores node { buckets = Hashtbl.create 32 }) dht_nodes;
  (* Any selector: each query sets the one it fills. *)
  let scan = { walk_cost = 0; best = Top_k.shared ~k:0; exclude = no_exclusion } in
  {
    landmark;
    ring;
    ring_members = Chord.members ring;
    virtual_nodes;
    stores;
    paths = Hashtbl.create 256;
    lookups = 0;
    overlay_hops = 0;
    migrated = 0;
    entry_cursor = 0;
    scan;
    offer_entry = offer_entry scan;
  }

let landmark t = t.landmark
let member_count t = Hashtbl.length t.paths

(* One DHT lookup for the bucket of [router]: route from a rotating entry
   member and account the overlay hops. *)
let locate t router =
  let entry = t.ring_members.(t.entry_cursor mod Array.length t.ring_members) in
  t.entry_cursor <- t.entry_cursor + 1;
  let owner, hops = Chord.lookup t.ring ~from:entry ~key:router in
  t.lookups <- t.lookups + 1;
  t.overlay_hops <- t.overlay_hops + hops;
  Hashtbl.find t.stores owner

let bucket_ref store router =
  match Hashtbl.find_opt store.buckets router with
  | Some b -> b
  | None ->
      let b = ref Bucket.empty in
      Hashtbl.add store.buckets router b;
      b

let insert t ~peer ~routers =
  if Array.length routers = 0 then invalid_arg "Directory.insert: empty path";
  if routers.(Array.length routers - 1) <> t.landmark then
    invalid_arg "Directory.insert: path must end at the landmark";
  if peer < 0 || peer >= Top_k.peer_limit then invalid_arg "Directory.insert: peer out of range";
  if Hashtbl.mem t.paths peer then invalid_arg "Directory.insert: peer already registered";
  Hashtbl.add t.paths peer (Array.copy routers);
  Array.iteri
    (fun dist router ->
      let store = locate t router in
      let b = bucket_ref store router in
      b := Bucket.add (dist, peer) !b)
    routers

let remove t ~peer =
  match Hashtbl.find_opt t.paths peer with
  | None -> raise Not_found
  | Some routers ->
      Hashtbl.remove t.paths peer;
      Array.iteri
        (fun dist router ->
          let store = locate t router in
          match Hashtbl.find_opt store.buckets router with
          | None -> ()
          | Some b ->
              b := Bucket.remove (dist, peer) !b;
              if Bucket.is_empty !b then Hashtbl.remove store.buckets router)
        routers

(* Same walk as Path_tree.query, buckets fetched through the ring, and
   the same argument for needing no seen-table: a bucket iterates
   ascending by (distance, peer), so a peer met again later in the walk
   comes at a distance no smaller than before, and the selector either
   still holds it or has k strictly better. *)
let query t ~routers ~k ?(exclude = no_exclusion) () =
  if k <= 0 then []
  else begin
    let best = Top_k.shared ~k in
    let scan = t.scan in
    scan.best <- best;
    scan.exclude <- exclude;
    let len = Array.length routers in
    let d = ref 0 in
    while !d < len && ((not (Top_k.is_full best)) || !d <= Top_k.cost_of (Top_k.worst_exn best)) do
      let router = routers.(!d) in
      let store = locate t router in
      (match Hashtbl.find store.buckets router with
      | bucket -> (
          scan.walk_cost <- !d;
          try Bucket.iter t.offer_entry !bucket with Exit -> ())
      | exception Not_found -> ());
      incr d
    done;
    scan.exclude <- no_exclusion;
    Top_k.drain best
  end

let query_member t ~peer ~k =
  query t ~routers:(Hashtbl.find t.paths peer) ~k ?exclude:(Top_k.excluding peer) ()

let stats t =
  let per_node =
    Array.to_list t.ring_members
    |> List.map (fun node -> (node, Hashtbl.length (Hashtbl.find t.stores node).buckets))
  in
  { lookups = t.lookups; overlay_hops = t.overlay_hops; buckets_per_node = per_node }

let mem t peer = Hashtbl.mem t.paths peer
let path_of t peer = Hashtbl.find_opt t.paths peer
let iter_members t f = Hashtbl.iter (fun p _ -> f p) t.paths

(* Direct walk over every node store (no lookup traffic counted): the feed
   for registry introspection. *)
let iter_buckets t f =
  Hashtbl.iter
    (fun _ store -> Hashtbl.iter (fun router b -> f router (Bucket.cardinal !b)) store.buckets)
    t.stores

(* Rough payload estimate (paths + bucket entries) in bytes; the ring
   metadata is excluded — it scales with nodes, not members. *)
let approx_bytes t =
  let words = ref 0 in
  Hashtbl.iter (fun _ path -> words := !words + 4 + Array.length path) t.paths;
  iter_buckets t (fun _ size -> words := !words + 2 + (5 * size));
  8 * !words

let dtree t p1 p2 =
  match (Hashtbl.find_opt t.paths p1, Hashtbl.find_opt t.paths p2) with
  | Some a, Some b ->
      let la = Array.length a and lb = Array.length b in
      let max_j = min la lb in
      let rec suffix j =
        if j < max_j && a.(la - 1 - j) = b.(lb - 1 - j) then suffix (j + 1) else j
      in
      let j = suffix 0 in
      if j = 0 then None else Some (la - j + (lb - j))
  | None, _ | _, None -> None

(* Ownership checks go through [Chord.owner_of] directly: invariants must
   not perturb the lookup/hop counters. *)
let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  Hashtbl.iter
    (fun peer path ->
      let len = Array.length path in
      if len = 0 then fail "peer %d has an empty path" peer;
      if path.(len - 1) <> t.landmark then fail "peer %d path does not end at the landmark" peer;
      Array.iteri
        (fun dist router ->
          let owner = Chord.owner_of t.ring ~key:router in
          match Hashtbl.find_opt t.stores owner with
          | None -> fail "router %d owned by unknown dht node %d" router owner
          | Some store -> (
              match Hashtbl.find_opt store.buckets router with
              | None -> fail "peer %d: router %d has no bucket on its owner" peer router
              | Some b ->
                  if not (Bucket.mem (dist, peer) !b) then
                    fail "peer %d missing from bucket of router %d" peer router))
        path)
    t.paths;
  Hashtbl.iter
    (fun holder store ->
      Hashtbl.iter
        (fun router b ->
          if Bucket.is_empty !b then fail "router %d has an empty bucket" router;
          let owner = Chord.owner_of t.ring ~key:router in
          if owner <> holder then
            fail "bucket of router %d held by node %d, owned by node %d" router holder owner;
          Bucket.iter
            (fun (dist, peer) ->
              match Hashtbl.find_opt t.paths peer with
              | None -> fail "bucket of router %d references unknown peer %d" router peer
              | Some path ->
                  if not (dist < Array.length path && path.(dist) = router) then
                    fail "bucket of router %d has stale entry for peer %d" router peer)
            !b)
        store.buckets)
    t.stores

let reset_counters t =
  t.lookups <- 0;
  t.overlay_hops <- 0

(* --- Membership dynamics ---------------------------------------------- *)

let node_count t = Chord.member_count t.ring
let migrations t = t.migrated

(* Rebuild the ring over [members] and move every bucket whose owner
   changed; returns how many moved. *)
let rebuild_and_migrate t members =
  let new_ring = Chord.build ?virtual_nodes:t.virtual_nodes members in
  let moved = ref 0 in
  (* Collect all (router, bucket) pairs with their current holder. *)
  let relocations = ref [] in
  Hashtbl.iter
    (fun holder store ->
      Hashtbl.iter
        (fun router bucket ->
          let owner = Chord.owner_of new_ring ~key:router in
          if owner <> holder then relocations := (holder, router, bucket, owner) :: !relocations)
        store.buckets)
    t.stores;
  List.iter
    (fun (holder, router, bucket, owner) ->
      Hashtbl.remove (Hashtbl.find t.stores holder).buckets router;
      Hashtbl.replace (Hashtbl.find t.stores owner).buckets router bucket;
      incr moved)
    !relocations;
  t.ring <- new_ring;
  t.ring_members <- Chord.members new_ring;
  t.migrated <- t.migrated + !moved;
  !moved

let add_node t ~node =
  let members = t.ring_members in
  if Array.mem node members then invalid_arg "Directory.add_node: already a member";
  Hashtbl.replace t.stores node { buckets = Hashtbl.create 32 };
  rebuild_and_migrate t (Array.append members [| node |])

let remove_node t ~node =
  let members = t.ring_members in
  if not (Array.mem node members) then invalid_arg "Directory.remove_node: not a member";
  if Array.length members <= 1 then invalid_arg "Directory.remove_node: last node";
  let remaining = Array.of_list (List.filter (fun m -> m <> node) (Array.to_list members)) in
  (* Rebuild first so the departing node's buckets have somewhere to go,
     then drop its (now empty) store. *)
  let moved = rebuild_and_migrate t remaining in
  (match Hashtbl.find_opt t.stores node with
  | Some store when Hashtbl.length store.buckets > 0 ->
      (* Everything it held must have been reassigned by the rebuild. *)
      failwith "Directory.remove_node: orphaned buckets"
  | _ -> ());
  Hashtbl.remove t.stores node;
  moved
