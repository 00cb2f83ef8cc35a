module type COST = sig
  type t

  val zero : t
  val add : t -> t -> t
  val compare : t -> t -> int
  val blit : t array -> int -> t array -> int -> int -> unit
end

(* [Array.blit] for int arrays without the write barrier.  [Array.blit]
   calls [caml_modify] per element when the destination lives in the major
   heap, which a long-lived chunk always does; an [int array] holds no
   pointers, so a plain loop is safe.  Overlapping ranges copy like
   [memmove]. *)
let int_blit (src : int array) soff (dst : int array) doff len =
  if
    len < 0 || soff < 0 || doff < 0
    || soff > Array.length src - len
    || doff > Array.length dst - len
  then invalid_arg "Path_tree_core.int_blit";
  if doff > soff then
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (doff + i) (Array.unsafe_get src (soff + i))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (doff + i) (Array.unsafe_get src (soff + i))
    done

module Itbl = Prelude.Int_tbl

module Make (Cost : COST) = struct
  type peer = int

  (* --- Flat bucket storage ---------------------------------------------

     A router bucket holds its (cost-to-router, peer) entries in a short
     array of sorted chunks: parallel [costs]/[peers] arrays, ascending by
     (cost, peer).  Compared to the AVL set this replaces, entries cost two
     unboxed words instead of a five-word tree node and scans are
     cache-linear.  Insertion is a binary search to the right chunk plus a
     shift; a chunk starts at [seed_cap] slots, doubles as it fills and
     splits at [chunk_cap], so a single insert never moves more than
     [chunk_cap] entries.  Shifts go through [Cost.blit] and [int_blit],
     never the write barrier for int or float entries.  There is one
     insertion path, so a tree's layout depends only on the sequence of
     operations. *)

  let chunk_cap = 512
  let seed_cap = 8
  let spare_limit = 64

  type chunk = {
    mutable costs : Cost.t array;
    mutable cpeers : int array;
    mutable clen : int;
  }

  type bucket = {
    mutable chunks : chunk array;
    mutable nchunks : int;
    mutable total : int;
  }

  (* A registered path, flattened to parallel arrays: half the words of a
     (router, cost) pair array, and unboxed for both int and float costs.
     [pcosts] is the caller's array, kept by reference and read only up to
     [Array.length routers]: every {!Path_tree} path shares one positions
     array, so a hop path stores no costs of its own. *)
  type path = { routers : int array; pcosts : Cost.t array }

  type t = {
    landmark : Topology.Graph.node;
    paths : path Itbl.t;
    (* Router ids are dense graph node ids, so a router's bucket is found
       by indexing, not hashing.  The array grows to the largest router an
       insert names; a router without entries holds [empty_bucket]. *)
    mutable buckets : bucket array;
    mutable live : int;  (* routers whose bucket is not [empty_bucket] *)
    (* Arena of retired full-size chunks, reused by splits so churn does
       not hammer the allocator. *)
    mutable spare : chunk list;
    mutable nspare : int;
  }

  (* Shared by every empty slot of every tree: never written, since
     [bucket_of] swaps in a fresh bucket before the first entry. *)
  let empty_bucket = { chunks = [||]; nchunks = 0; total = 0 }

  let create ~landmark =
    { landmark; paths = Itbl.create 64; buckets = [||]; live = 0; spare = []; nspare = 0 }

  let landmark t = t.landmark
  let member_count t = Itbl.length t.paths
  let mem t p = Itbl.mem t.paths p
  let router_count t = t.live

  let entry_compare c1 p1 c2 p2 =
    match Cost.compare c1 c2 with 0 -> Int.compare p1 p2 | c -> c

  let fresh_chunk cap =
    { costs = Array.make cap Cost.zero; cpeers = Array.make cap 0; clen = 0 }

  let alloc_full t =
    match t.spare with
    | c :: rest ->
        t.spare <- rest;
        t.nspare <- t.nspare - 1;
        c.clen <- 0;
        c
    | [] -> fresh_chunk chunk_cap

  let retire_chunk t c =
    if Array.length c.costs = chunk_cap && t.nspare < spare_limit then begin
      c.clen <- 0;
      t.spare <- c :: t.spare;
      t.nspare <- t.nspare + 1
    end

  (* Move [len] entries of [src] from [soff] to [dst] at [doff]. *)
  let move_entries src soff dst doff len =
    Cost.blit src.costs soff dst.costs doff len;
    int_blit src.cpeers soff dst.cpeers doff len

  let ensure_room c =
    let cap = Array.length c.costs in
    if c.clen = cap then begin
      let ncap = min chunk_cap (2 * cap) in
      let costs = Array.make ncap Cost.zero and cpeers = Array.make ncap 0 in
      Cost.blit c.costs 0 costs 0 c.clen;
      int_blit c.cpeers 0 cpeers 0 c.clen;
      c.costs <- costs;
      c.cpeers <- cpeers
    end

  (* First index in [c] whose entry is >= (cost, p). *)
  let chunk_lower c cost p =
    let lo = ref 0 and hi = ref c.clen in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if entry_compare c.costs.(mid) c.cpeers.(mid) cost p < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Index of the chunk whose range should hold (cost, p): the first chunk
     whose last entry is >= the key, or the last chunk when the key is
     beyond every range.  Requires [b.nchunks >= 1]. *)
  let bucket_chunk_for b cost p =
    let lo = ref 0 and hi = ref (b.nchunks - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = b.chunks.(mid) in
      if entry_compare c.costs.(c.clen - 1) c.cpeers.(c.clen - 1) cost p < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  let bucket_insert_chunk b ci c =
    let n = b.nchunks in
    if n = Array.length b.chunks then begin
      let arr = Array.make (max 2 (2 * n)) c in
      Array.blit b.chunks 0 arr 0 n;
      b.chunks <- arr
    end;
    Array.blit b.chunks ci b.chunks (ci + 1) (n - ci);
    b.chunks.(ci) <- c;
    b.nchunks <- n + 1

  let split_chunk t b ci =
    let c = b.chunks.(ci) in
    let half = c.clen / 2 in
    let upper = alloc_full t in
    let ulen = c.clen - half in
    move_entries c half upper 0 ulen;
    upper.clen <- ulen;
    c.clen <- half;
    bucket_insert_chunk b (ci + 1) upper

  let chunk_insert_at c pos cost p =
    ensure_room c;
    let n = c.clen in
    move_entries c pos c (pos + 1) (n - pos);
    c.costs.(pos) <- cost;
    c.cpeers.(pos) <- p;
    c.clen <- n + 1

  let bucket_add t b cost p =
    (if b.nchunks = 0 then begin
       let c = fresh_chunk seed_cap in
       c.costs.(0) <- cost;
       c.cpeers.(0) <- p;
       c.clen <- 1;
       bucket_insert_chunk b 0 c
     end
     else begin
       let ci = ref (bucket_chunk_for b cost p) in
       let c0 = b.chunks.(!ci) in
       if c0.clen >= chunk_cap then begin
         split_chunk t b !ci;
         let lower = b.chunks.(!ci) in
         if entry_compare lower.costs.(lower.clen - 1) lower.cpeers.(lower.clen - 1) cost p < 0
         then incr ci
       end;
       let c = b.chunks.(!ci) in
       chunk_insert_at c (chunk_lower c cost p) cost p
     end);
    b.total <- b.total + 1

  (* Silent no-op when absent, matching the Set.remove this replaces; the
     structural invariants guarantee presence on every live code path. *)
  let bucket_remove t b cost p =
    if b.nchunks > 0 then begin
      let ci = bucket_chunk_for b cost p in
      let c = b.chunks.(ci) in
      let pos = chunk_lower c cost p in
      if pos < c.clen && entry_compare c.costs.(pos) c.cpeers.(pos) cost p = 0 then begin
        move_entries c (pos + 1) c pos (c.clen - pos - 1);
        c.clen <- c.clen - 1;
        b.total <- b.total - 1;
        if c.clen = 0 then begin
          Array.blit b.chunks (ci + 1) b.chunks ci (b.nchunks - ci - 1);
          b.nchunks <- b.nchunks - 1;
          retire_chunk t c
        end
      end
    end

  let bucket_mem b cost p =
    b.nchunks > 0
    &&
    let ci = bucket_chunk_for b cost p in
    let c = b.chunks.(ci) in
    let pos = chunk_lower c cost p in
    pos < c.clen && entry_compare c.costs.(pos) c.cpeers.(pos) cost p = 0

  (* The live bucket of [router], created (and the index grown) on first
     use.  [router] is non-negative: [validate] checked it. *)
  let bucket_of t router =
    let n = Array.length t.buckets in
    if router >= n then begin
      let grown = Array.make (router + 1) empty_bucket in
      Array.blit t.buckets 0 grown 0 n;
      t.buckets <- grown
    end;
    let b = t.buckets.(router) in
    if b != empty_bucket then b
    else begin
      let b = { chunks = [||]; nchunks = 0; total = 0 } in
      t.buckets.(router) <- b;
      t.live <- t.live + 1;
      b
    end

  (* [router]'s bucket, [empty_bucket] when it has none: reads need no
     bucket of their own. *)
  let find_bucket t router =
    if router >= 0 && router < Array.length t.buckets then t.buckets.(router) else empty_bucket

  (* --- Registration -----------------------------------------------------

     A path arrives either as [(router, cost)] hops or as parallel
     [routers]/[costs] arrays, where only the first [Array.length routers]
     costs are read (so {!Path_tree} can pass one shared positions array).
     The routers are copied; the costs are kept as given. *)

  let split hops = (Array.map fst hops, Array.map snd hops)

  let validate t ~peer ~routers ~costs =
    let len = Array.length routers in
    if len = 0 then invalid_arg "Path_tree.insert: empty path";
    if routers.(len - 1) <> t.landmark then
      invalid_arg "Path_tree.insert: path must end at the landmark";
    if Array.length costs < len then invalid_arg "Path_tree.insert: fewer costs than routers";
    for i = 0 to len - 1 do
      if routers.(i) < 0 then invalid_arg "Path_tree.insert: negative router";
      if i > 0 && Cost.compare costs.(i - 1) costs.(i) > 0 then
        invalid_arg "Path_tree.insert: costs must be non-decreasing"
    done;
    if Itbl.mem t.paths peer then invalid_arg "Path_tree.insert: peer already registered"

  (* Register a path: the routers are copied, so the caller keeps its
     array; [costs] is shared, read-only. *)
  let insert_path t ~peer ~routers ~costs =
    validate t ~peer ~routers ~costs;
    let routers = Array.copy routers in
    Itbl.add t.paths peer { routers; pcosts = costs };
    for i = 0 to Array.length routers - 1 do
      bucket_add t (bucket_of t routers.(i)) costs.(i) peer
    done

  let insert t ~peer ~hops =
    let routers, costs = split hops in
    insert_path t ~peer ~routers ~costs

  let remove t peer =
    let path = Itbl.find t.paths peer in
    Itbl.remove t.paths peer;
    for i = 0 to Array.length path.routers - 1 do
      let router = path.routers.(i) in
      let b = t.buckets.(router) in
      (* [empty_bucket] when a router repeats in the path. *)
      if b != empty_bucket then begin
        bucket_remove t b path.pcosts.(i) peer;
        if b.total = 0 then begin
          t.buckets.(router) <- empty_bucket;
          t.live <- t.live - 1
        end
      end
    done

  let routers_of t peer =
    match Itbl.find t.paths peer with p -> Some p.routers | exception Not_found -> None

  let meeting_point t p1 p2 =
    match (Itbl.find_opt t.paths p1, Itbl.find_opt t.paths p2) with
    | Some path1, Some path2 ->
        let len1 = Array.length path1.routers and len2 = Array.length path2.routers in
        (* Longest common router suffix: both paths end at the landmark. *)
        let max_j = min len1 len2 in
        let rec suffix j =
          if j < max_j && path1.routers.(len1 - 1 - j) = path2.routers.(len2 - 1 - j) then
            suffix (j + 1)
          else j
        in
        let j = suffix 0 in
        if j = 0 then None
        else Some (path1.routers.(len1 - j), path1.pcosts.(len1 - j), path2.pcosts.(len2 - j))
    | None, _ | _, None -> None

  let dtree t p1 p2 =
    match meeting_point t p1 p2 with Some (_, c1, c2) -> Some (Cost.add c1 c2) | None -> None

  (* --- Queries ----------------------------------------------------------- *)

  (* The k best (cost, peer) candidates accumulate in the shared bounded
     selector: O(log k) per offer, equal-cost ties to the lower peer id. *)
  let candidate_compare (c1, p1) (c2, p2) = entry_compare c1 p1 c2 p2

  let beats_worst best cost =
    (not (Topk.is_full best)) || Cost.compare cost (fst (Topk.worst_exn best)) <= 0

  (* Does [best] already hold [p]?  At most k probes, no allocation. *)
  let rec holds best p i =
    i < Topk.length best && (snd (Topk.get best i) = p || holds best p (i + 1))

  (* Offer the entries of [router]'s bucket, reached at [walk_cost].

     The scan stops at the first entry losing the full lexicographic
     (cost, peer) comparison against the k-th best: buckets iterate
     ascending by (cost, peer), so nothing after it could enter.

     A peer crossing several routers of the walk is listed in each of their
     buckets, and it is deduplicated without a seen-table: its first
     listing is its meeting point (sink-tree property), and a peer listed
     later in the walk appears at a candidate distance no smaller than its
     earlier one, since path costs are non-decreasing and tree routes
     traverse shared routers in a consistent order.  So when it resurfaces
     it is either still held in [best] -- which the ≤ k probes of [holds]
     find -- or it was displaced by k strictly better candidates and the
     cutoff rejects it again.  Nothing allocates per entry but the tuple
     of an accepted offer. *)
  let scan_bucket t router walk_cost best exclude =
    let b = find_bucket t router in
    try
      for ci = 0 to b.nchunks - 1 do
        let c = b.chunks.(ci) in
        for e = 0 to c.clen - 1 do
          let p = c.cpeers.(e) in
          let candidate = Cost.add walk_cost c.costs.(e) in
          if Topk.is_full best then begin
            let worst_cost, worst_peer = Topk.worst_exn best in
            if entry_compare candidate p worst_cost worst_peer > 0 then raise_notrace Exit
          end;
          if not (exclude p || holds best p 0) then Topk.offer best (candidate, p)
        done
      done
    with Exit -> ()

  (* Walk the query path outward, offering every candidate into [best].
     A peer met at several routers of the walk is offered once: [holds]
     finds it among the <= k entries held, so no seen-table is kept.  The
     walk stops once the walk cost alone can no longer tie the k-th best. *)
  let query_into t ~routers ~costs ~best ~exclude =
    let len = Array.length routers in
    let i = ref 0 in
    while !i < len && beats_worst best costs.(!i) do
      scan_bucket t routers.(!i) costs.(!i) best exclude;
      incr i
    done

  let drain best = List.map (fun (cost, p) -> (p, cost)) (Topk.to_sorted_list best)

  let query_path t ~routers ~costs ~k ?(exclude = fun _ -> false) () =
    if k <= 0 then []
    else begin
      let best = Topk.create ~k candidate_compare in
      query_into t ~routers ~costs ~best ~exclude;
      drain best
    end

  let query t ~hops ~k ?exclude () =
    let routers, costs = split hops in
    query_path t ~routers ~costs ~k ?exclude ()

  (* The member's own stored path is the query path: nothing to copy. *)
  let query_member t ~peer ~k =
    let path = Itbl.find t.paths peer in
    query_path t ~routers:path.routers ~costs:path.pcosts ~k ~exclude:(Int.equal peer) ()

  let iter_members t f = Itbl.iter (fun p _ -> f p) t.paths

  let iter_buckets t f =
    Array.iteri (fun router b -> if b != empty_bucket then f router b.total) t.buckets

  (* Rough payload estimate in machine words times 8.  Paths: hash binding
     (3) + record (3) + the router array (1 + len); the cost arrays are the
     caller's (one shared positions array for every hop path) and are not
     counted.  Buckets: the router index (1 + its length), then per live
     bucket a record (4) + chunk pointer array + per chunk a record (4) and
     two arrays at their allocated capacity.  Good for cross-backend
     comparison, not accounting. *)
  let approx_bytes t =
    let words = ref (1 + Array.length t.buckets) in
    Itbl.iter (fun _ p -> words := !words + 7 + Array.length p.routers) t.paths;
    iter_buckets t (fun router _ ->
        let b = t.buckets.(router) in
        words := !words + 5 + Array.length b.chunks;
        for ci = 0 to b.nchunks - 1 do
          words := !words + 6 + (2 * Array.length b.chunks.(ci).costs)
        done);
    8 * !words

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith fmt in
    Itbl.iter
      (fun peer p ->
        let len = Array.length p.routers in
        if len = 0 then fail "peer %d has an empty path" peer;
        if Array.length p.pcosts < len then fail "peer %d has fewer costs than routers" peer;
        if p.routers.(len - 1) <> t.landmark then
          fail "peer %d path does not end at the landmark" peer;
        for i = 0 to len - 1 do
          let b = find_bucket t p.routers.(i) in
          if b == empty_bucket then fail "peer %d: router %d has no bucket" peer p.routers.(i);
          if not (bucket_mem b p.pcosts.(i) peer) then
            fail "peer %d missing from bucket of router %d" peer p.routers.(i)
        done)
      t.paths;
    if empty_bucket.nchunks <> 0 || empty_bucket.total <> 0 then fail "the empty bucket was written";
    let live = ref 0 in
    iter_buckets t (fun _ _ -> incr live);
    if !live <> t.live then fail "%d live buckets counted as %d" !live t.live;
    (* Conversely, every bucket entry must be justified by a registered
       path, and the chunk structure itself must be sound. *)
    iter_buckets t (fun router _ ->
        let b = t.buckets.(router) in
        if b.total = 0 then fail "router %d has an empty bucket" router;
        if b.nchunks > Array.length b.chunks then fail "router %d: nchunks out of range" router;
        let counted = ref 0 in
        for ci = 0 to b.nchunks - 1 do
          let c = b.chunks.(ci) in
          if c.clen = 0 then fail "router %d: empty chunk %d" router ci;
          if c.clen > Array.length c.costs then fail "router %d: chunk %d overflows" router ci;
          counted := !counted + c.clen;
          for e = 0 to c.clen - 1 do
            if e > 0 && entry_compare c.costs.(e - 1) c.cpeers.(e - 1) c.costs.(e) c.cpeers.(e) > 0
            then fail "router %d: chunk %d not sorted" router ci;
            if
              ci > 0 && e = 0
              &&
              let prev = b.chunks.(ci - 1) in
              entry_compare prev.costs.(prev.clen - 1) prev.cpeers.(prev.clen - 1) c.costs.(0)
                c.cpeers.(0)
              > 0
            then fail "router %d: chunks %d and %d out of order" router (ci - 1) ci;
            let peer = c.cpeers.(e) and cost = c.costs.(e) in
            match Itbl.find_opt t.paths peer with
            | None -> fail "bucket of router %d references unknown peer %d" router peer
            | Some p ->
                let justified = ref false in
                for i = 0 to Array.length p.routers - 1 do
                  if p.routers.(i) = router && Cost.compare p.pcosts.(i) cost = 0 then
                    justified := true
                done;
                if not !justified then
                  fail "bucket of router %d has stale entry for peer %d" router peer
          done
        done;
        if !counted <> b.total then
          fail "router %d: bucket total %d but %d entries" router b.total !counted)
end
