(* A horizontally scaled management store: router buckets hash-partitioned
   across N independent shards, each a path tree of its own.

   A peer's home shard is the hash of its attachment router (the first
   router of its recorded path), so every bucket the peer occupies lives on
   one shard and an insert touches exactly one shard -- insert throughput
   scales with N.  Queries scatter to all shards and gather the k best;
   because the shards partition the population, the merged answer is
   identical to a single-store deployment (the cross-backend equivalence
   test pins this).

   Two scatter strategies:

   - Sequential (the default on one core): one bounded selector is
     carried across the shards via [Path_tree.query_into], visiting
     the query path's own home shard first.  Co-attached peers -- the
     nearest answers -- live on that home shard by construction, so the
     bound is tight after the first shard and each remaining shard usually
     stops after a bucket probe or two.
   - Domain-parallel (multi-core): the per-shard scatter runs on a small
     persistent [Prelude.Domain_pool].  Shards are disjoint data
     structures and workers write only their own slot of the results
     array, so no shared mutable state crosses domains; the caller merges
     with the same bounded selector afterwards.  [exclude] closures run on
     worker domains and must be pure.

   The [home] table maps peer -> shard index.  It is created with a small
   hint (capacity 256) on purpose: OCaml hash tables double on demand at
   amortized O(1) per insert, registries are usually long-lived enough to
   absorb the log2(n) resizes, and no population hint exists at [create]
   time. *)

module Make (Config : sig
      val shards : int

      val query_domains : int
      (** Parallelism for the query scatter: 0 sizes from the machine
          (shared pool, sequential scatter on a single core), 1 forces the
          sequential scatter, n > 1 forces a dedicated n-domain pool. *)

      val parallel_threshold : int
      (** Engage the pool only at or above this member count: job handoff
          costs microseconds, so small registries always scatter
          sequentially. *)

      val metrics : Simkit.Metrics.t option
      (** Per-shard dimensional streams: timings under
          [registry_shard_insert_ns]/[registry_shard_query_ns] labeled
          [{shard="<i>"}], and an occupancy gauge
          [registry_shard_members] labeled [{landmark="<l>",
          shard="<i>"}] — the landmark identifies the registry instance,
          so summing the gauge per shard across landmarks yields a
          server's true per-shard totals.  [None] keeps the hot paths
          untouched. *)
    end) : Registry_intf.S = struct
  type t = {
    landmark : Topology.Graph.node;
    shards : Path_tree.t array;
    home : (int, int) Hashtbl.t;  (* peer -> shard index *)
    occ : (string * string) list array;  (* occupancy-gauge labels, per shard *)
  }

  let shard_count = Config.shards
  let backend_name = Printf.sprintf "sharded:%d" shard_count

  (* Per-shard observability.  Label lists are preallocated per shard and
     every hook starts with a [Config.metrics] match, so the disabled path
     costs one branch.  Workers never touch the registry from inside the
     pool -- Metrics hashtables are not thread-safe -- parallel paths time
     into a caller-local array and observe after the join. *)
  let shard_insert_ns = "registry_shard_insert_ns"
  let shard_query_ns = "registry_shard_query_ns"
  let shard_members = "registry_shard_members"
  let shard_labels = Array.init shard_count (fun s -> [ ("shard", string_of_int s) ])
  let clock () = Unix.gettimeofday () *. 1e9

  (* [n] amortized samples of [elapsed] total: batch visits then weigh the
     same as the singleton visits they replaced, so per-shard quantiles
     stay comparable across scatter strategies. *)
  let observe_shard stream s ~elapsed ~n =
    match Config.metrics with
    | None -> ()
    | Some m ->
        if n > 0 then begin
          let per_op = elapsed /. float_of_int n in
          for _ = 1 to n do
            Simkit.Metrics.observe m stream ~labels:shard_labels.(s) per_op
          done
        end

  let occ_labels landmark =
    Array.init shard_count (fun s ->
        [ ("landmark", string_of_int landmark); ("shard", string_of_int s) ])

  let set_occupancy t s =
    match Config.metrics with
    | None -> ()
    | Some m ->
        Simkit.Metrics.set m shard_members ~labels:t.occ.(s)
          (float_of_int (Path_tree.member_count t.shards.(s)))

  let pool =
    lazy
      (if shard_count < 2 then None
       else
         match Config.query_domains with
         | 0 ->
             if Domain.recommended_domain_count () > 1 then Some (Prelude.Domain_pool.shared ())
             else None
         | 1 -> None
         | n ->
             let p = Prelude.Domain_pool.create ~domains:n () in
             at_exit (fun () -> Prelude.Domain_pool.shutdown p);
             Some p)

  let create ~landmark =
    if shard_count < 1 then invalid_arg "Sharded_registry.create: need at least one shard";
    {
      landmark;
      shards = Array.init shard_count (fun _ -> Path_tree.create ~landmark);
      home = Hashtbl.create 256;
      occ = occ_labels landmark;
    }

  let landmark t = t.landmark

  (* Multiplicative hash: router ids are near-sequential, so plain [mod]
     would stripe rather than hash.  Power-of-two shard counts (the common
     case) mask instead of dividing -- this sits on the insert hot path. *)
  let shard_mask = if shard_count land (shard_count - 1) = 0 then shard_count - 1 else -1

  let shard_of_router router =
    let h = router * 0x9E3779B1 in
    let h = (h lxor (h lsr 16)) land max_int in
    if shard_mask >= 0 then h land shard_mask else h mod shard_count

  let insert t ~peer ~routers =
    if Array.length routers = 0 then invalid_arg "Sharded_registry.insert: empty path";
    if Hashtbl.mem t.home peer then invalid_arg "Sharded_registry.insert: peer already registered";
    let s = shard_of_router routers.(0) in
    (match Config.metrics with
    | None -> Path_tree.insert t.shards.(s) ~peer ~routers
    | Some _ ->
        let t0 = clock () in
        Path_tree.insert t.shards.(s) ~peer ~routers;
        observe_shard shard_insert_ns s ~elapsed:(clock () -. t0) ~n:1);
    Hashtbl.add t.home peer s;
    set_occupancy t s

  let remove t peer =
    match Hashtbl.find_opt t.home peer with
    | None -> raise Not_found
    | Some s ->
        Path_tree.remove t.shards.(s) peer;
        Hashtbl.remove t.home peer;
        set_occupancy t s

  let mem t peer = Hashtbl.mem t.home peer
  let member_count t = Hashtbl.length t.home

  let path_of t peer =
    match Hashtbl.find_opt t.home peer with
    | None -> None
    | Some s -> Path_tree.path_of t.shards.(s) peer

  let iter_members t f = Hashtbl.iter (fun p _ -> f p) t.home

  let dtree t p1 p2 =
    match (Hashtbl.find_opt t.home p1, Hashtbl.find_opt t.home p2) with
    | Some s1, Some s2 when s1 = s2 -> Path_tree.dtree t.shards.(s1) p1 p2
    | Some s1, Some s2 -> (
        (* Different shards: rank from the registered paths, exactly as any
           single-store backend would from its bucket structure. *)
        match (Path_tree.path_of t.shards.(s1) p1, Path_tree.path_of t.shards.(s2) p2) with
        | Some a, Some b ->
            let la = Array.length a and lb = Array.length b in
            let max_j = min la lb in
            let rec suffix j =
              if j < max_j && a.(la - 1 - j) = b.(lb - 1 - j) then suffix (j + 1) else j
            in
            let j = suffix 0 in
            if j = 0 then None else Some (la - j + (lb - j))
        | None, _ | _, None -> None)
    | None, _ | _, None -> None

  let candidate_compare (d1, p1) (d2, p2) =
    match Int.compare d1 d2 with 0 -> Int.compare p1 p2 | c -> c

  let drain best = List.map (fun (d, p) -> (p, d)) (Topk.to_sorted_list best)

  (* Sequential scatter, home shard of the query path first: the peers
     co-attached at [routers.(0)] all live on that shard, so [best] leaves
     it holding the tightest possible bound and the other shards' walks cut
     off almost immediately. *)
  let scatter_into t ~routers ~best ~exclude =
    if Array.length routers > 0 then begin
      let visit s =
        match Config.metrics with
        | None -> Path_tree.query_into t.shards.(s) ~routers ~best ~exclude
        | Some _ ->
            let t0 = clock () in
            Path_tree.query_into t.shards.(s) ~routers ~best ~exclude;
            observe_shard shard_query_ns s ~elapsed:(clock () -. t0) ~n:1
      in
      let first = shard_of_router routers.(0) in
      visit first;
      for s = 0 to shard_count - 1 do
        if s <> first then visit s
      done
    end

  let usable_pool t =
    if member_count t < Config.parallel_threshold then None else Lazy.force pool

  let query t ~routers ~k ?(exclude = fun _ -> false) () =
    if k <= 0 then []
    else begin
      let best = Topk.create ~k candidate_compare in
      (match usable_pool t with
      | Some pool ->
          let parts = Array.make shard_count [] in
          let elapsed = Array.make shard_count 0.0 in
          let timing = Option.is_some Config.metrics in
          Prelude.Domain_pool.run pool shard_count (fun s ->
              let t0 = if timing then clock () else 0.0 in
              parts.(s) <- Path_tree.query t.shards.(s) ~routers ~k ~exclude ();
              if timing then elapsed.(s) <- clock () -. t0);
          if timing then
            Array.iteri (fun s e -> observe_shard shard_query_ns s ~elapsed:e ~n:1) elapsed;
          Array.iter (fun part -> List.iter (fun (p, d) -> Topk.offer best (d, p)) part) parts
      | None -> scatter_into t ~routers ~best ~exclude);
      drain best
    end

  include Registry_intf.Derive_batch (struct
    type nonrec t = t

    let landmark = landmark
    let mem = mem
    let insert = insert
    let query = query
  end)

  let query_many t ~queries ~k ?(exclude = fun _ _ -> false) () =
    let n = Array.length queries in
    if k <= 0 then Array.make n []
    else
      match usable_pool t with
      | Some pool when n > 0 ->
          (* Shard-major: each worker answers the whole batch against its
             own shard (reusing that shard's selector state), the caller
             merges per query.  Workers write disjoint slots of [parts]. *)
          let parts = Array.make shard_count [||] in
          let elapsed = Array.make shard_count 0.0 in
          let timing = Option.is_some Config.metrics in
          Prelude.Domain_pool.run pool shard_count (fun s ->
              let t0 = if timing then clock () else 0.0 in
              parts.(s) <- Path_tree.query_many t.shards.(s) ~queries ~k ~exclude ();
              if timing then elapsed.(s) <- clock () -. t0);
          if timing then
            Array.iteri (fun s e -> observe_shard shard_query_ns s ~elapsed:e ~n) elapsed;
          Array.init n (fun qi ->
              let best = Topk.create ~k candidate_compare in
              for s = 0 to shard_count - 1 do
                List.iter (fun (p, d) -> Topk.offer best (d, p)) parts.(s).(qi)
              done;
              drain best)
      | _ ->
          (* Query-major with a shared selector: the bound carries from the
             home shard, and [clear] keeps capacity across the batch. *)
          let best = Topk.create ~k candidate_compare in
          Array.mapi
            (fun qi routers ->
              Topk.clear best;
              scatter_into t ~routers ~best ~exclude:(fun p -> exclude qi p);
              drain best)
            queries

  let query_member t ~peer ~k =
    match path_of t peer with
    | None -> raise Not_found
    | Some routers -> query t ~routers ~k ~exclude:(fun p -> p = peer) ()

  let stats t =
    let inner = Registry_intf.merge_stats (Array.to_list (Array.map Path_tree.stats t.shards)) in
    let largest = Array.fold_left (fun m s -> max m (Path_tree.member_count s)) 0 t.shards in
    ("largest_shard", largest) :: ("shards", shard_count) :: inner |> List.sort compare

  (* Per-shard introspections merge bucket-wise: a router whose bucket is
     split across shards counts once per physical bucket, which is the
     storage-level truth for a scatter-gather store.  The home table keeps
     the authoritative member count (shards partition peers, so the merged
     sum equals it anyway). *)
  let introspect t =
    let merged =
      Registry_intf.merge_introspections
        (Array.to_list (Array.map Path_tree.introspect t.shards))
    in
    {
      merged with
      Registry_intf.members = member_count t;
      approx_bytes = merged.Registry_intf.approx_bytes + (8 * 3 * Hashtbl.length t.home);
    }

  let check_invariants t =
    Array.iter Path_tree.check_invariants t.shards;
    Hashtbl.iter
      (fun peer s ->
        if s < 0 || s >= shard_count then
          failwith (Printf.sprintf "peer %d assigned to shard %d of %d" peer s shard_count);
        if not (Path_tree.mem t.shards.(s) peer) then
          failwith (Printf.sprintf "peer %d missing from its home shard %d" peer s))
      t.home;
    let members = Array.fold_left (fun acc s -> acc + Path_tree.member_count s) 0 t.shards in
    if members <> Hashtbl.length t.home then
      failwith
        (Printf.sprintf "shards hold %d members, home table %d" members (Hashtbl.length t.home))
end

(* Runtime construction: [make ~shards ()] packs a sharded path tree as a
   first-class module, ready for [Server.create ~backend] or the CLI's
   --backend flag.  [query_domains] and [parallel_threshold] tune the
   Domain-parallel scatter (defaults: size from the machine, engage at
   4096 members). *)
let make ?(query_domains = 0) ?(parallel_threshold = 4096) ?metrics ~shards () :
    (module Registry_intf.S) =
  (module Make (struct
    let shards = shards
    let query_domains = query_domains
    let parallel_threshold = parallel_threshold
    let metrics = metrics
  end) : Registry_intf.S)
