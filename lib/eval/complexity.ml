type config = {
  routers : int;
  populations : int list;
  k : int;
  queries_per_size : int;
  seed : int;
}

let default_config =
  { routers = 4000; populations = [ 1000; 4000; 16000; 64000 ]; k = 5; queries_per_size = 2000; seed = 1 }

let quick_config =
  { routers = 1000; populations = [ 500; 2000; 8000 ]; k = 5; queries_per_size = 500; seed = 1 }

type row = {
  n : int;
  insert_us : float;
  query_us : float;
  naive_query_us : float;
  insert_per_log : float;
}

let run config =
  let map =
    Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params config.routers) ~seed:config.seed
  in
  let graph = map.graph in
  let rng = Prelude.Prng.create config.seed in
  let landmark =
    match
      Nearby.Landmark.place graph Nearby.Landmark.Medium_degree ~count:1 ~rng |> Array.to_list
    with
    | [ l ] -> l
    | _ -> assert false
  in
  let oracle = Traceroute.Route_oracle.create graph in
  let leaves = map.leaves in
  (* Pre-compute every distinct leaf's route once; peers reuse them. *)
  let routes =
    Array.map
      (fun leaf -> Array.of_list (Traceroute.Route_oracle.route oracle ~src:leaf ~dst:landmark))
      leaves
  in
  let time_us f =
    let t0 = Sys.time () in
    let iters = f () in
    let elapsed = Sys.time () -. t0 in
    elapsed *. 1e6 /. float_of_int (max 1 iters)
  in
  List.map
    (fun n ->
      let tree = Nearby.Path_tree.create ~landmark in
      let leaf_of = Array.init n (fun _ -> Prelude.Prng.int rng (Array.length leaves)) in
      for peer = 0 to n - 1 do
        Nearby.Path_tree.insert tree ~peer ~routers:routes.(leaf_of.(peer))
      done;
      (* Time batches of (insert fresh peer, remove it) cycles so the
         population stays at n and the timed section is far above the clock
         resolution regardless of n; an insert is ~half a cycle. *)
      let cycles = 4000 in
      let insert_us =
        let cost =
          time_us (fun () ->
              for c = 0 to cycles - 1 do
                let peer = n + c in
                Nearby.Path_tree.insert tree ~peer
                  ~routers:routes.(Prelude.Prng.int rng (Array.length routes));
                Nearby.Path_tree.remove tree peer
              done;
              cycles)
        in
        cost /. 2.0
      in
      let query_us =
        time_us (fun () ->
            for q = 0 to config.queries_per_size - 1 do
              let peer = q mod n in
              ignore (Nearby.Path_tree.query_member tree ~peer ~k:config.k)
            done;
            config.queries_per_size)
      in
      (* Ablation: the same queries against the exhaustive-scan registry,
         in batches of fewer queries -- it is orders of magnitude slower at
         large n.  Batches repeat until the timed section reaches 20 ms: at
         small n one batch is a fraction of a millisecond, where a single
         preemption would swamp the per-query cost. *)
      let naive = Nearby.Naive_registry.create ~landmark in
      for peer = 0 to n - 1 do
        Nearby.Naive_registry.insert naive ~peer ~routers:routes.(leaf_of.(peer))
      done;
      let naive_iters = max 10 (config.queries_per_size / 20) in
      let naive_query_us =
        time_us (fun () ->
            let t0 = Sys.time () in
            let q = ref 0 in
            while !q = 0 || Sys.time () -. t0 < 0.02 do
              for _ = 1 to naive_iters do
                ignore (Nearby.Naive_registry.query_member naive ~peer:(!q mod n) ~k:config.k);
                incr q
              done
            done;
            !q)
      in
      {
        n;
        insert_us;
        query_us;
        naive_query_us;
        insert_per_log = insert_us /. (log (float_of_int n) /. log 2.0);
      })
    config.populations

let print rows =
  print_endline "complexity: path-tree insertion and query cost vs population";
  print_endline "  (paper claim: insert O(log n), query O(1) hash access)";
  Prelude.Table.print
    ~header:[ "n"; "insert us"; "query us"; "naive query us"; "insert us / log2 n" ]
    (List.map
       (fun r ->
         [
           string_of_int r.n;
           Prelude.Table.float_cell r.insert_us;
           Prelude.Table.float_cell r.query_us;
           Prelude.Table.float_cell r.naive_query_us;
           Prelude.Table.float_cell r.insert_per_log;
         ])
       rows)
