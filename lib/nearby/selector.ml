type context = {
  graph : Topology.Graph.t;
  oracle : Traceroute.Route_oracle.t;
  latency : Topology.Latency.t option;
  peer_routers : Topology.Graph.node array;
}

let make_context ?latency graph ~peer_routers =
  { graph; oracle = Traceroute.Route_oracle.create graph; latency; peer_routers }

type strategy =
  | Proposed of { landmarks : Topology.Graph.node array }
  | Random_peers
  | Oracle_closest
  | Vivaldi_rounds of { rounds : int; params : Coord.Vivaldi.params }
  | Gnp_landmarks of { landmarks : Topology.Graph.node array; dims : int }
  | Meridian_rings of { params : Coord.Meridian.params }
  | Hybrid of { primary : strategy; random_links : int }

let rec strategy_name = function
  | Proposed _ -> "proposed"
  | Random_peers -> "random"
  | Oracle_closest -> "closest"
  | Vivaldi_rounds { rounds; _ } -> Printf.sprintf "vivaldi-%dr" rounds
  | Gnp_landmarks _ -> "gnp"
  | Meridian_rings _ -> "meridian"
  | Hybrid { primary; random_links } ->
      Printf.sprintf "%s+%drand" (strategy_name primary) random_links

(* Smallest-k selection by score with deterministic (score, id) tie-break. *)
let k_smallest_peers ~n ~k ~self score =
  let ids = Array.init n (fun i -> i) in
  let key i = (score i, i) in
  Array.sort (fun a b -> compare (key a) (key b)) ids;
  let out = ref [] and taken = ref 0 in
  Array.iter
    (fun i ->
      if i <> self && !taken < k then begin
        out := i :: !out;
        incr taken
      end)
    ids;
  Array.of_list (List.rev !out)

let select_oracle ctx ~k =
  let n = Array.length ctx.peer_routers in
  Array.init n (fun i ->
      let dist = Topology.Bfs.distances ctx.graph ctx.peer_routers.(i) in
      k_smallest_peers ~n ~k ~self:i (fun j -> dist.(ctx.peer_routers.(j))))

let select_random ctx ~k ~rng =
  let n = Array.length ctx.peer_routers in
  Array.init n (fun i ->
      if n <= 1 then [||]
      else begin
        let k = min k (n - 1) in
        (* Sample from the population without peer i by index shifting. *)
        let picks = Prelude.Prng.sample_without_replacement rng ~k ~n:(n - 1) in
        Array.map (fun j -> if j >= i then j + 1 else j) picks
      end)

let select_proposed ctx ~landmarks ~k ~rng =
  let n = Array.length ctx.peer_routers in
  let server = Server.create ctx.oracle ~landmarks in
  let client = Client.create ?latency:ctx.latency ctx.oracle ~landmarks in
  let join_rng = Prelude.Prng.split rng in
  for peer = 0 to n - 1 do
    ignore (Server.join ~rng:join_rng server ~client ~peer ~attach_router:ctx.peer_routers.(peer))
  done;
  Array.init n (fun peer ->
      Server.neighbors server ~peer ~k |> List.map fst |> Array.of_list)

let rtt_between ctx i j =
  Traceroute.Probe.ping ?latency:ctx.latency ctx.oracle ~src:ctx.peer_routers.(i)
    ~dst:ctx.peer_routers.(j)

let select_vivaldi ctx ~rounds ~params ~k ~rng =
  let n = Array.length ctx.peer_routers in
  let viv = Coord.Vivaldi.create params ~node_count:n ~rng:(Prelude.Prng.split rng) in
  let measure i j = rtt_between ctx i j in
  for _ = 1 to rounds do
    Coord.Vivaldi.run_round viv ~measure ~rng
  done;
  Array.init n (fun i -> k_smallest_peers ~n ~k ~self:i (fun j -> Coord.Vivaldi.estimate viv i j))

let select_gnp ctx ~landmarks ~dims ~k ~rng =
  let n = Array.length ctx.peer_routers in
  let measure a b = Traceroute.Probe.ping ?latency:ctx.latency ctx.oracle ~src:a ~dst:b in
  let embedding = Coord.Gnp.embed_landmarks ~dims ~landmarks ~measure ~rng in
  let host_coord =
    Array.init n (fun i ->
        let rtts = Array.map (fun lmk -> measure ctx.peer_routers.(i) lmk) landmarks in
        Coord.Gnp.place_host embedding ~rtts)
  in
  (* Pure Euclidean ranking: a k-d tree answers each peer's k-NN without the
     O(n^2) scan. *)
  let tree = Coord.Kd_tree.build host_coord in
  Array.init n (fun i ->
      Coord.Kd_tree.k_nearest tree host_coord.(i) ~k ~exclude:(fun j -> j = i) ()
      |> List.map fst |> Array.of_list)

let select_meridian ctx ~params ~k ~rng =
  let n = Array.length ctx.peer_routers in
  let overlay =
    Coord.Meridian.build ?latency:ctx.latency params ctx.oracle ~peer_routers:ctx.peer_routers
      ~rng:(Prelude.Prng.split rng)
  in
  Array.init n (fun i ->
      if n <= 1 then [||]
      else begin
        let entry =
          let e = Prelude.Prng.int rng (n - 1) in
          if e >= i then e + 1 else e
        in
        Coord.Meridian.k_nearest ~exclude:(fun p -> p = i) overlay
          ~target_router:ctx.peer_routers.(i) ~entry ~k
        |> Array.of_list
      end)

let rec select ctx strategy ~k ~rng =
  if k < 0 then invalid_arg "Selector.select: negative k";
  match strategy with
  | Proposed { landmarks } -> select_proposed ctx ~landmarks ~k ~rng
  | Random_peers -> select_random ctx ~k ~rng
  | Oracle_closest -> select_oracle ctx ~k
  | Vivaldi_rounds { rounds; params } -> select_vivaldi ctx ~rounds ~params ~k ~rng
  | Gnp_landmarks { landmarks; dims } -> select_gnp ctx ~landmarks ~dims ~k ~rng
  | Meridian_rings { params } -> select_meridian ctx ~params ~k ~rng
  | Hybrid { primary; random_links } ->
      if random_links < 0 || random_links > k then
        invalid_arg "Selector.select: random_links must be in [0, k]";
      let n = Array.length ctx.peer_routers in
      let base = select ctx primary ~k:(k - random_links) ~rng in
      Array.mapi
        (fun peer set ->
          let chosen = Hashtbl.create k in
          Array.iter (fun j -> Hashtbl.replace chosen j ()) set;
          let extra = ref [] and added = ref 0 and attempts = ref 0 in
          while !added < random_links && !attempts < 100 * (random_links + 1) && n > 1 do
            incr attempts;
            let j = Prelude.Prng.int rng n in
            if j <> peer && not (Hashtbl.mem chosen j) then begin
              Hashtbl.replace chosen j ();
              extra := j :: !extra;
              incr added
            end
          done;
          Array.append set (Array.of_list (List.rev !extra)))
        base
