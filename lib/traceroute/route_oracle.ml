type mode = Hops | Weighted of (int -> int -> float) | Inflated of { inflation : float; seed : int }

(* Deterministic per-(link, destination) perturbation in [0, 1): a splitmix
   finalizer over the canonical link key and the destination. *)
let link_noise ~seed ~dst u v =
  let a, b = if u < v then (u, v) else (v, u) in
  let open Int64 in
  let z = of_int (((a * 1_000_003) + b) lxor (dst * 97) lxor seed) in
  let z = add z 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  float_of_int (to_int (logand z 0xFFFFFFL)) /. float_of_int 0x1000000

(* dst -> parent array of the sink tree rooted at dst: parents.(v) is the
   next hop of v toward dst.  Either unbounded (hashtable) or LRU-bounded. *)
type cache = Unbounded of (int, int array) Hashtbl.t | Bounded of (int, int array) Prelude.Lru.t

type t = { graph : Topology.Graph.t; mode : mode; cache : cache }

let make_cache = function
  | None -> Unbounded (Hashtbl.create 16)
  | Some capacity -> Bounded (Prelude.Lru.create ~capacity)

let create ?max_cached_trees graph = { graph; mode = Hops; cache = make_cache max_cached_trees }
let create_weighted graph ~weight = { graph; mode = Weighted weight; cache = make_cache None }

let create_inflated graph ~inflation ~seed =
  if inflation < 0.0 then invalid_arg "Route_oracle.create_inflated: negative inflation";
  { graph; mode = Inflated { inflation; seed }; cache = make_cache None }

let graph t = t.graph

let compute_tree t dst =
  match t.mode with
  | Hops -> Topology.Bfs.parents t.graph dst
  | Weighted weight -> Topology.Dijkstra.parents t.graph ~weight dst
  | Inflated { inflation; seed } ->
      (* A quarter of the links (per destination) carry the policy penalty;
         routes detour around them when the detour is cheaper, which is what
         actually lengthens paths.  Uniform per-link noise would not: longer
         paths accumulate more of it on average, so shortest-hop routes
         would still win. *)
      let weight u v = if link_noise ~seed ~dst u v < 0.25 then 1.0 +. inflation else 1.0 in
      Topology.Dijkstra.parents t.graph ~weight dst

let tree t dst =
  match t.cache with
  | Unbounded table -> (
      match Hashtbl.find_opt table dst with
      | Some parents -> parents
      | None ->
          let parents = compute_tree t dst in
          Hashtbl.add table dst parents;
          parents)
  | Bounded lru -> (
      match Prelude.Lru.find lru dst with
      | Some parents -> parents
      | None ->
          let parents = compute_tree t dst in
          Prelude.Lru.add lru dst parents;
          parents)

let next_hop t ~dst v =
  if v = dst then None
  else begin
    let parents = tree t dst in
    match parents.(v) with -1 -> None | next -> Some next
  end

(* Count the links by walking the sink tree's parent array: no route is
   built (the transport asks on every delivered message). *)
let route_length t ~src ~dst =
  if src = dst then 0
  else begin
    let parents = tree t dst in
    if parents.(src) = -1 then max_int
    else begin
      let hops = ref 0 and v = ref src in
      while !v <> dst do
        v := parents.(!v);
        incr hops
      done;
      !hops
    end
  end

(* Read the route straight off the parent array into an array sized by
   [route_length]. *)
let route_array t ~src ~dst =
  match route_length t ~src ~dst with
  | n when n = max_int -> [||]
  | 0 -> [| src |]
  | n ->
      let parents = tree t dst in
      let routers = Array.make (n + 1) src in
      for i = 1 to n do
        routers.(i) <- parents.(routers.(i - 1))
      done;
      routers

let route t ~src ~dst = Array.to_list (route_array t ~src ~dst)

let cached_destinations t =
  match t.cache with
  | Unbounded table -> Hashtbl.length table
  | Bounded lru -> Prelude.Lru.length lru
