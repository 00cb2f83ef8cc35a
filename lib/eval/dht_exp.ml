type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  dht_nodes : int;
  virtual_nodes : int;
  k : int;
  seed : int;
}

let default_config =
  { routers = 2000; peers = 600; landmark_count = 8; dht_nodes = 64; virtual_nodes = 8; k = 5; seed = 1 }

let quick_config =
  { routers = 600; peers = 150; landmark_count = 4; dht_nodes = 16; virtual_nodes = 8; k = 5; seed = 1 }

(* One row of the backend sweep: the same joins and queries on a server
   of each registry backend. *)
type backend_row = {
  backend : string;
  identical : bool;  (* Same answers as the path-tree server's. *)
  backend_stats : (string * int) list;  (* [Server.registry_stats]. *)
  queries : int;  (* The server's "registry_query" counter. *)
}

type report = {
  answers_identical : bool;
  mean_lookups_per_join : float;
  mean_hops_per_lookup : float;
  mean_lookups_per_query : float;
  bucket_balance : float;
  bucket_balance_v1 : float;
  super_peer_balance : float;
  ring_size : int;
  mean_hops_kademlia : float;
      (* Same lookups routed over a Kademlia table of the same nodes. *)
  join_migration_fraction : float;
      (* Buckets moved when one node joins / total buckets: consistent
         hashing promises ~1/(N+1). *)
  backend_rows : backend_row list;
}

let run config =
  let w =
    Workload.build ~routers:config.routers ~landmark_count:config.landmark_count
      ~peers:config.peers ~seed:config.seed ()
  in
  let n = Array.length w.Workload.peer_routers in
  (* A server with every peer joined, deterministically (no rng). *)
  let joined ?backend () =
    let server = Nearby.Server.create ?backend w.ctx.oracle ~landmarks:w.landmarks in
    let client = Nearby.Client.create w.ctx.oracle ~landmarks:w.landmarks in
    for peer = 0 to n - 1 do
      ignore (Nearby.Server.join server ~client ~peer ~attach_router:w.peer_routers.(peer))
    done;
    server
  in
  (* Centralized reference; its landmark trees are also the super-peers'
     regions, for the balance comparison. *)
  let server = joined () in
  (* DHT: one directory shard per landmark over a shared node set (the
     first dht_nodes peers double as storage nodes, offset into their own
     id space). *)
  let storage_nodes = Array.init config.dht_nodes (fun i -> 1_000_000 + i) in
  let make_directories ~virtual_nodes =
    let dirs = Hashtbl.create config.landmark_count in
    Array.iter
      (fun lmk ->
        Hashtbl.add dirs lmk (Dht.Directory.create ~virtual_nodes ~landmark:lmk storage_nodes))
      w.landmarks;
    dirs
  in
  let directories = make_directories ~virtual_nodes:config.virtual_nodes in
  let join_lookups = ref 0 and join_hops = ref 0 in
  for peer = 0 to n - 1 do
    match Nearby.Server.info server peer with
    | None -> ()
    | Some info ->
        let routers = Option.get (Nearby.Server.path_of server peer) in
        let dir = Hashtbl.find directories info.landmark in
        let before = Dht.Directory.stats dir in
        Dht.Directory.insert dir ~peer ~routers;
        let after = Dht.Directory.stats dir in
        join_lookups := !join_lookups + (after.lookups - before.lookups);
        join_hops := !join_hops + (after.overlay_hops - before.overlay_hops)
  done;
  (* Queries: every peer asks its home directory; compare with central. *)
  Hashtbl.iter (fun _ dir -> Dht.Directory.reset_counters dir) directories;
  let identical = ref true in
  let query_lookups = ref 0 and query_hops = ref 0 in
  for peer = 0 to n - 1 do
    match Nearby.Server.info server peer with
    | None -> ()
    | Some info ->
        let dir = Hashtbl.find directories info.landmark in
        let before = Dht.Directory.stats dir in
        let dht_reply = Dht.Directory.query_member dir ~peer ~k:config.k in
        let after = Dht.Directory.stats dir in
        query_lookups := !query_lookups + (after.lookups - before.lookups);
        query_hops := !query_hops + (after.overlay_hops - before.overlay_hops);
        let central_reply =
          Nearby.Server.neighbors server ~peer ~k:config.k
          |> List.filter (fun (_, d) -> d <> max_int)
        in
        if dht_reply <> central_reply then identical := false
  done;
  (* Aggregate bucket counts per storage node across the landmark shards. *)
  let bucket_counts_of dirs =
    let per_node = Hashtbl.create config.dht_nodes in
    Hashtbl.iter
      (fun _ dir ->
        List.iter
          (fun (node, buckets) ->
            Hashtbl.replace per_node node
              (buckets + Option.value ~default:0 (Hashtbl.find_opt per_node node)))
          (Dht.Directory.stats dir).buckets_per_node)
      dirs;
    Hashtbl.fold (fun _ b acc -> b :: acc) per_node []
  in
  let bucket_counts = bucket_counts_of directories in
  (* Baseline without virtual nodes, same registrations. *)
  let directories_v1 = make_directories ~virtual_nodes:1 in
  for peer = 0 to n - 1 do
    match Nearby.Server.info server peer with
    | None -> ()
    | Some info ->
        Dht.Directory.insert
          (Hashtbl.find directories_v1 info.landmark)
          ~peer
          ~routers:(Option.get (Nearby.Server.path_of server peer))
  done;
  let bucket_counts_v1 = bucket_counts_of directories_v1 in
  (* Kademlia comparison: same storage nodes, same router keys, greedy XOR
     routing; hops averaged over one lookup per (peer path router). *)
  let kad = Dht.Kademlia.build storage_nodes in
  let kad_hops = ref 0 and kad_lookups = ref 0 in
  let ring_members = storage_nodes in
  let cursor = ref 0 in
  for peer = 0 to n - 1 do
    match Nearby.Server.path_of server peer with
    | None -> ()
    | Some routers ->
        Array.iter
          (fun router ->
            let entry = ring_members.(!cursor mod Array.length ring_members) in
            incr cursor;
            let _, hops = Dht.Kademlia.lookup kad ~from:entry ~key:router in
            kad_hops := !kad_hops + hops;
            incr kad_lookups)
          routers
  done;
  (* Membership dynamics: cost of one storage-node join, as a fraction of
     all stored buckets (consistent hashing promises ~1/(N+1)). *)
  let join_migration_fraction =
    let sample_dir = Hashtbl.find directories w.landmarks.(0) in
    let total =
      List.fold_left (fun acc (_, b) -> acc + b) 0 (Dht.Directory.stats sample_dir).buckets_per_node
    in
    if total = 0 then 0.0
    else begin
      (* One trial join is high-variance at 1.5% expected capture; average
         a handful of trial node ids. *)
      let trials = 5 in
      let moved = ref 0 in
      for i = 0 to trials - 1 do
        let node = 2_000_000 + (i * 7919) in
        moved := !moved + Dht.Directory.add_node sample_dir ~node;
        ignore (Dht.Directory.remove_node sample_dir ~node)
      done;
      float_of_int !moved /. float_of_int (trials * total)
    end
  in
  (* Backend sweep: the same joins on a server of every backend, each
     checked to answer exactly like the path tree's server. *)
  let reference = ref [||] in
  let backend_rows =
    List.map
      (fun spec ->
        let sweep = joined ~backend:(Backends.backend spec) () in
        let replies = Array.init n (fun peer -> Nearby.Server.neighbors sweep ~peer ~k:config.k) in
        if spec = Backends.Tree then reference := replies;
        {
          backend = Backends.to_string spec;
          identical = replies = !reference;
          backend_stats = Nearby.Server.registry_stats sweep;
          queries = Simkit.Trace.counter (Nearby.Server.trace sweep) "registry_query";
        })
      Backends.all
  in
  let total_lookups = !join_lookups + !query_lookups in
  let total_hops = !join_hops + !query_hops in
  {
    answers_identical = !identical;
    mean_lookups_per_join = float_of_int !join_lookups /. float_of_int (max 1 n);
    mean_hops_per_lookup =
      (if total_lookups = 0 then 0.0 else float_of_int total_hops /. float_of_int total_lookups);
    mean_lookups_per_query = float_of_int !query_lookups /. float_of_int (max 1 n);
    bucket_balance = Measure.max_over_mean bucket_counts;
    bucket_balance_v1 = Measure.max_over_mean bucket_counts_v1;
    super_peer_balance = Measure.max_over_mean (Measure.landmark_members server);
    ring_size = config.dht_nodes;
    mean_hops_kademlia =
      (if !kad_lookups = 0 then 0.0 else float_of_int !kad_hops /. float_of_int !kad_lookups);
    join_migration_fraction;
    backend_rows;
  }

let print r =
  print_endline "dht: decentralizing the management server (Chord directory)";
  Prelude.Table.print
    ~header:[ "metric"; "value" ]
    [
      [ "answers identical to central server"; string_of_bool r.answers_identical ];
      [ "DHT lookups per join"; Prelude.Table.float_cell ~decimals:1 r.mean_lookups_per_join ];
      [ "DHT lookups per query"; Prelude.Table.float_cell ~decimals:1 r.mean_lookups_per_query ];
      [
        Printf.sprintf "overlay hops per lookup, Chord (ring of %d)" r.ring_size;
        Prelude.Table.float_cell ~decimals:2 r.mean_hops_per_lookup;
      ];
      [
        "overlay hops per lookup, Kademlia (same nodes)";
        Prelude.Table.float_cell ~decimals:2 r.mean_hops_kademlia;
      ];
      [ "bucket balance (max/mean), DHT + virtual nodes"; Prelude.Table.float_cell ~decimals:2 r.bucket_balance ];
      [ "bucket balance (max/mean), DHT plain"; Prelude.Table.float_cell ~decimals:2 r.bucket_balance_v1 ];
      [
        "member balance (max/mean), super-peers";
        Prelude.Table.float_cell ~decimals:2 r.super_peer_balance;
      ];
      [
        Printf.sprintf "buckets moved by one node join (~1/%d expected)" (r.ring_size + 1);
        Prelude.Table.float_cell r.join_migration_fraction;
      ];
    ];
  print_endline "";
  print_endline "registry backend sweep (same workload through the unified interface)";
  Prelude.Table.print
    ~header:[ "backend"; "answers = tree"; "queries"; "members"; "stats" ]
    (List.map
       (fun row ->
         let interesting =
           List.filter (fun (key, _) -> key <> "members") row.backend_stats
           |> List.map (fun (key, v) -> Printf.sprintf "%s=%d" key v)
           |> String.concat " "
         in
         [
           row.backend;
           string_of_bool row.identical;
           string_of_int row.queries;
           string_of_int (Option.value ~default:0 (List.assoc_opt "members" row.backend_stats));
           interesting;
         ])
       r.backend_rows)
