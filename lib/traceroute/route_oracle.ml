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

(* The sink tree rooted at [dst]: [parents.(v)] is the next hop of [v]
   toward [dst], [depth.(v)] the links [v]'s route crosses ([max_int] when
   unreachable), both filled by the one traversal that builds the tree. *)
type tree = { dst : int; parents : int array; depth : int array }

let no_tree = { dst = -1; parents = [||]; depth = [||] }

(* Unbounded: one slot per destination node, [no_tree] until built.
   Bounded: an LRU, fronted by the most recently used tree, which is the
   LRU's head, so answering from it leaves the recency order as a lookup
   would. *)
type cache =
  | Unbounded of { trees : tree array; mutable built : int }
  | Bounded of { lru : (int, tree) Prelude.Lru.t; mutable last : tree }

type t = { graph : Topology.Graph.t; mode : mode; cache : cache }

let make_cache graph = function
  | None -> Unbounded { trees = Array.make (Topology.Graph.node_count graph) no_tree; built = 0 }
  | Some capacity -> Bounded { lru = Prelude.Lru.create ~capacity; last = no_tree }

let create ?max_cached_trees graph =
  { graph; mode = Hops; cache = make_cache graph max_cached_trees }

let create_weighted graph ~weight = { graph; mode = Weighted weight; cache = make_cache graph None }

let create_inflated graph ~inflation ~seed =
  if inflation < 0.0 then invalid_arg "Route_oracle.create_inflated: negative inflation";
  { graph; mode = Inflated { inflation; seed }; cache = make_cache graph None }

let graph t = t.graph

let compute_tree t dst =
  let parents, depth =
    match t.mode with
    | Hops -> Topology.Bfs.tree t.graph dst
    | Weighted weight -> Topology.Dijkstra.tree t.graph ~weight dst
    | Inflated { inflation; seed } ->
        (* A quarter of the links (per destination) carry the policy penalty;
           routes detour around them when the detour is cheaper, which is
           what actually lengthens paths.  Uniform per-link noise would not:
           longer paths accumulate more of it on average, so shortest-hop
           routes would still win. *)
        let weight u v = if link_noise ~seed ~dst u v < 0.25 then 1.0 +. inflation else 1.0 in
        Topology.Dijkstra.tree t.graph ~weight dst
  in
  { dst; parents; depth }

let tree t dst =
  match t.cache with
  | Unbounded c ->
      let tr = c.trees.(dst) in
      if tr != no_tree then tr
      else begin
        let tr = compute_tree t dst in
        c.trees.(dst) <- tr;
        c.built <- c.built + 1;
        tr
      end
  | Bounded c ->
      if c.last.dst = dst then c.last
      else begin
        let tr =
          match Prelude.Lru.find c.lru dst with
          | Some tr -> tr
          | None ->
              let tr = compute_tree t dst in
              Prelude.Lru.add c.lru dst tr;
              tr
        in
        c.last <- tr;
        tr
      end

let next_hop t ~dst v =
  if v = dst then None
  else match (tree t dst).parents.(v) with -1 -> None | next -> Some next

(* The sink tree knows every node's depth: no walk, no allocation (the
   transport asks on every delivered message). *)
let route_length t ~src ~dst = if src = dst then 0 else (tree t dst).depth.(src)

(* Read the route straight off the parent array into an array sized by
   the source's depth. *)
let route_array t ~src ~dst =
  if src = dst then [| src |]
  else begin
    let tr = tree t dst in
    match tr.depth.(src) with
    | n when n = max_int -> [||]
    | n ->
        let routers = Array.make (n + 1) src in
        for i = 1 to n do
          routers.(i) <- tr.parents.(routers.(i - 1))
        done;
        routers
  end

let route t ~src ~dst = Array.to_list (route_array t ~src ~dst)

let cached_destinations t =
  match t.cache with
  | Unbounded c -> c.built
  | Bounded c -> Prelude.Lru.length c.lru
