type peer = int

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

module Slot_index = Prelude.Slot_index

(* --- Flat bucket storage -----------------------------------------------

   A router bucket holds its entries in a short array of sorted chunks.
   An entry is one packed int, [cost lsl 31 lor peer] ({!Topk.pack}), so
   ascending int order is ascending (cost, peer) order: a search compares
   ints, a shift moves one array, a scan reads one array.  Insertion is a
   binary search to the right chunk plus a shift; a chunk's array is a
   power of two from [seed_cap] to [chunk_cap] slots, so a single insert
   never moves more than [chunk_cap] entries.

   Chunks are kept full.  Members join in id order, so a bucket takes its
   inserts at the ends of its cost groups, always at the same few points,
   and a chunk split in half would leave the half without such a point
   half full for good.  So a key falling between two chunks goes to the
   end of the earlier one; a full chunk first moves entries into a
   neighbour that has room; and only a full chunk between full
   neighbours splits, at the insertion point.  A removal leaving a chunk
   at most a quarter full merges it into a neighbour that can take it.
   [chunk_cap] is 256, not 512: a full chunk's insert then shifts about
   as many entries as a half-full 512-entry one did.  There is one
   insertion path, so a tree's layout depends only on the sequence of
   operations. *)

let chunk_cap = 256
let seed_cap = 8

type chunk = { mutable keys : int array; mutable clen : int }
type bucket = { mutable chunks : chunk array; mutable nchunks : int; mutable total : int }

(* A stored route: the router array and the cost array of the insert
   that first stored it, the costs kept by reference and read only up to
   the route's length (every {!Path_tree} path shares one positions
   array, so a hop path stores no costs of its own).  Never written after
   it is built, so members with equal routes share one. *)
type route = { routers : Topology.Graph.node array; costs : int array }

(* Fills every free slot. *)
let no_route = { routers = [||]; costs = [||] }

(* A member is a slot of [index]; [routes.(slot)] is its route. *)
type t = {
  landmark : Topology.Graph.node;
  index : Slot_index.t;
  mutable routes : route array;
  (* Router ids are dense graph node ids, so a router's bucket is found
     by indexing, not hashing.  The array grows to the largest router an
     insert names; a router without entries holds [empty_bucket]. *)
  mutable buckets : bucket array;
  mutable live : int;  (* routers whose bucket is not [empty_bucket] *)
}

(* Shared by every empty slot of every tree: never written, since
   [bucket_of] swaps in a fresh bucket before the first entry. *)
let empty_bucket = { chunks = [||]; nchunks = 0; total = 0 }

let create ~landmark =
  { landmark; index = Slot_index.create (); routes = [||]; buckets = [||]; live = 0 }

let landmark t = t.landmark
let member_count t = Slot_index.length t.index
let mem t p = Slot_index.mem t.index p
let router_count t = t.live

(* The array size for [n] entries: the next power of two, from
   [seed_cap] to [chunk_cap]. *)
let capacity_for n =
  let cap = ref seed_cap in
  while !cap < n do
    cap := 2 * !cap
  done;
  min chunk_cap !cap

let reserve c n =
  if n > Array.length c.keys then begin
    let keys = Array.make (capacity_for n) 0 in
    int_blit c.keys 0 keys 0 c.clen;
    c.keys <- keys
  end

let last_key c = c.keys.(c.clen - 1)

(* First index in [c] whose key is >= [key]. *)
let chunk_lower c key =
  let lo = ref 0 and hi = ref c.clen in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of the chunk whose range should hold [key]: the first chunk whose
   last key is >= [key], or the last chunk when [key] is beyond every
   range.  Requires [b.nchunks >= 1]. *)
let bucket_chunk_for b key =
  let lo = ref 0 and hi = ref (b.nchunks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if last_key b.chunks.(mid) < key then lo := mid + 1 else hi := mid
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

let bucket_drop_chunk b ci =
  Array.blit b.chunks (ci + 1) b.chunks ci (b.nchunks - ci - 1);
  b.nchunks <- b.nchunks - 1

let chunk_insert_at c pos key =
  reserve c (c.clen + 1);
  let n = c.clen in
  int_blit c.keys pos c.keys (pos + 1) (n - pos);
  c.keys.(pos) <- key;
  c.clen <- n + 1

(* Move the first [m] entries of [c] to the end of [left]. *)
let move_to_left left c m =
  reserve left (left.clen + m);
  int_blit c.keys 0 left.keys left.clen m;
  left.clen <- left.clen + m;
  int_blit c.keys m c.keys 0 (c.clen - m);
  c.clen <- c.clen - m

(* Move the last [m] entries of [c] to the front of [right]. *)
let move_to_right c right m =
  reserve right (right.clen + m);
  int_blit right.keys 0 right.keys m right.clen;
  int_blit c.keys (c.clen - m) right.keys 0 m;
  right.clen <- right.clen + m;
  c.clen <- c.clen - m

(* Split the full chunk [ci] where [key] goes, at [pos]: the entries
   below [pos] and those from [pos] on.  The key joins the smaller part,
   which gets the smallest array that holds it; the larger part keeps the
   old array. *)
let split_at b ci pos key =
  let c = b.chunks.(ci) in
  let n = c.clen in
  if 2 * pos <= n then begin
    let lower = { keys = Array.make (capacity_for (pos + 1)) key; clen = pos + 1 } in
    int_blit c.keys 0 lower.keys 0 pos;
    int_blit c.keys pos c.keys 0 (n - pos);
    c.clen <- n - pos;
    bucket_insert_chunk b ci lower
  end
  else begin
    let upper = { keys = Array.make (capacity_for (n - pos + 1)) key; clen = n - pos + 1 } in
    int_blit c.keys pos upper.keys 1 (n - pos);
    c.clen <- pos;
    bucket_insert_chunk b (ci + 1) upper
  end

let room c = chunk_cap - c.clen

let bucket_add b key =
  (if b.nchunks = 0 then bucket_insert_chunk b 0 { keys = Array.make seed_cap key; clen = 1 }
   else begin
     let ci = bucket_chunk_for b key in
     let c = b.chunks.(ci) in
     let pos = chunk_lower c key in
     let left = if ci > 0 then b.chunks.(ci - 1) else c in
     let right = if ci + 1 < b.nchunks then b.chunks.(ci + 1) else c in
     if pos = 0 && left != c && room left > 0 then chunk_insert_at left left.clen key
     else if room c > 0 then chunk_insert_at c pos key
     else if pos > 0 && left != c && room left > 0 then begin
       let m = min pos (room left) in
       move_to_left left c m;
       chunk_insert_at c (pos - m) key
     end
     else if pos < c.clen && right != c && room right > 0 then begin
       move_to_right c right (min (c.clen - pos) (room right));
       chunk_insert_at c pos key
     end
     else split_at b ci pos key
   end);
  b.total <- b.total + 1

(* Whether chunk [i] of [b] exists and can take every entry of [c]. *)
let takes b i c = i >= 0 && i < b.nchunks && b.chunks.(i).clen + c.clen <= chunk_cap

(* Silent no-op when absent; the structural invariants guarantee presence
   on every live code path.  A chunk left at most a quarter full merges
   into a neighbour that can take all of it. *)
let bucket_remove b key =
  if b.nchunks > 0 then begin
    let ci = bucket_chunk_for b key in
    let c = b.chunks.(ci) in
    let pos = chunk_lower c key in
    if pos < c.clen && c.keys.(pos) = key then begin
      int_blit c.keys (pos + 1) c.keys pos (c.clen - pos - 1);
      c.clen <- c.clen - 1;
      b.total <- b.total - 1;
      if c.clen = 0 then bucket_drop_chunk b ci
      else if 4 * c.clen <= chunk_cap then begin
        if takes b (ci - 1) c then begin
          move_to_left b.chunks.(ci - 1) c c.clen;
          bucket_drop_chunk b ci
        end
        else if takes b (ci + 1) c then begin
          move_to_right c b.chunks.(ci + 1) c.clen;
          bucket_drop_chunk b ci
        end
      end
    end
  end

let bucket_mem b key =
  b.nchunks > 0
  &&
  let c = b.chunks.(bucket_chunk_for b key) in
  let pos = chunk_lower c key in
  pos < c.clen && c.keys.(pos) = key

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

(* --- Registration -------------------------------------------------------

   A path arrives as parallel [routers]/[costs] arrays, where only the
   first [Array.length routers] costs are read (so {!Path_tree} can pass
   one shared positions array).  Routes toward one landmark form a tree,
   so members on one router mostly register one route: an insert shares
   the route of the member heading its first router's bucket when the
   two are equal, and stores a copy of the routers (the costs kept as
   given) only when they differ.  Every check runs before the first
   write, so a refused insert leaves the tree as it was. *)

let cost_in_range c = c >= 0 && c < Topk.cost_limit

let validate t ~peer ~routers ~costs =
  let len = Array.length routers in
  if len = 0 then invalid_arg "Path_tree.insert: empty path";
  if routers.(len - 1) <> t.landmark then
    invalid_arg "Path_tree.insert: path must end at the landmark";
  if Array.length costs < len then invalid_arg "Path_tree.insert: fewer costs than routers";
  if peer < 0 || peer >= Topk.peer_limit then invalid_arg "Path_tree.insert: peer out of range";
  for i = 0 to len - 1 do
    if routers.(i) < 0 then invalid_arg "Path_tree.insert: negative router";
    if not (cost_in_range costs.(i)) then invalid_arg "Path_tree.insert: cost out of range";
    if i > 0 && costs.(i - 1) > costs.(i) then
      invalid_arg "Path_tree.insert: costs must be non-decreasing"
  done;
  if Slot_index.mem t.index peer then invalid_arg "Path_tree.insert: peer already registered"

(* Room for [slot] in the per-slot arrays: as many slots as the index
   holds keys. *)
let ensure_slot t slot =
  let n = Array.length t.routes in
  if slot >= n then begin
    let grown = Array.make (Slot_index.capacity t.index) no_route in
    Array.blit t.routes 0 grown 0 n;
    t.routes <- grown
  end

(* The first entry of [b] from chunk [ci], position [pos] on, whose peer
   is not [except]; -1 when there is none.  Only a router repeated in
   [except]'s own path puts more than one of its entries at the head. *)
let rec first_other b ci pos ~except =
  if ci >= b.nchunks then -1
  else
    let c = b.chunks.(ci) in
    if pos >= c.clen then first_other b (ci + 1) 0 ~except
    else
      let peer = Topk.peer_of c.keys.(pos) in
      if peer <> except then peer else first_other b ci (pos + 1) ~except

(* The head of [router]'s bucket: the member nearest to the router. *)
let member_through t router ~except = first_other (find_bucket t router) 0 0 ~except

(* Whether [a.(0 .. len-1)] equals [b.(0 .. len-1)]. *)
let rec same_prefix (a : int array) (b : int array) len i =
  i >= len || (Array.unsafe_get a i = Array.unsafe_get b i && same_prefix a b len (i + 1))

(* [route] stores [routers] with [costs]' first [Array.length routers]
   costs.  [routers] is often the stored array itself: a server completes
   a route from a donor's. *)
let same_route route routers costs =
  let len = Array.length routers in
  Array.length route.routers = len
  && (route.routers == routers || same_prefix route.routers routers len 0)
  && (route.costs == costs || same_prefix route.costs costs len 0)

(* The route of the member heading [routers.(0)]'s bucket when it equals
   the new one, else a fresh route holding a copy of [routers]. *)
let shared_route t routers costs =
  let slot = Slot_index.find t.index (member_through t routers.(0) ~except:(-1)) in
  if slot >= 0 && same_route t.routes.(slot) routers costs then t.routes.(slot)
  else { routers = Array.copy routers; costs }

let insert_path t ~peer ~routers ~costs =
  validate t ~peer ~routers ~costs;
  let route = shared_route t routers costs in
  let slot = Slot_index.add t.index peer in
  ensure_slot t slot;
  t.routes.(slot) <- route;
  let routers = route.routers in
  for i = 0 to Array.length routers - 1 do
    bucket_add (bucket_of t routers.(i)) (Topk.pack ~cost:costs.(i) ~peer)
  done

let remove t peer =
  let slot = Slot_index.remove t.index peer in
  if slot < 0 then raise Not_found;
  let { routers; costs } = t.routes.(slot) in
  t.routes.(slot) <- no_route;
  for i = 0 to Array.length routers - 1 do
    let router = routers.(i) in
    let b = t.buckets.(router) in
    (* [empty_bucket] when a router repeats in the path. *)
    if b != empty_bucket then begin
      bucket_remove b (Topk.pack ~cost:costs.(i) ~peer);
      if b.total = 0 then begin
        t.buckets.(router) <- empty_bucket;
        t.live <- t.live - 1
      end
    end
  done

let routers_of t peer =
  let slot = Slot_index.find t.index peer in
  if slot < 0 then None else Some t.routes.(slot).routers

(* Length of the longest common suffix of [r1] and [r2], at most [max_j]. *)
let rec common_suffix r1 r2 max_j j =
  if j < max_j && r1.(Array.length r1 - 1 - j) = r2.(Array.length r2 - 1 - j) then
    common_suffix r1 r2 max_j (j + 1)
  else j

let meeting_point t p1 p2 =
  let s1 = Slot_index.find t.index p1 and s2 = Slot_index.find t.index p2 in
  if s1 < 0 || s2 < 0 then None
  else begin
    let m1 = t.routes.(s1) and m2 = t.routes.(s2) in
    let r1 = m1.routers and r2 = m2.routers in
    let len1 = Array.length r1 and len2 = Array.length r2 in
    (* Longest common router suffix: both paths end at the landmark. *)
    let j = common_suffix r1 r2 (min len1 len2) 0 in
    if j = 0 then None else Some (r1.(len1 - j), m1.costs.(len1 - j), m2.costs.(len2 - j))
  end

let dtree t p1 p2 =
  match meeting_point t p1 p2 with Some (_, c1, c2) -> Some (c1 + c2) | None -> None

(* --- Queries ------------------------------------------------------------

   A candidate is the packed key [walk_cost lsl 31 + entry key]: the walk
   cost to the router plus the entry's cost to it, with the entry's peer.

   Offer the entries of [router]'s bucket, reached at [walk_cost].
   {!Topk.offer_ascending} stops a chunk at the first candidate losing the
   full lexicographic (cost, peer) comparison against the k-th best:
   buckets iterate ascending, so nothing after it could enter.

   A peer crossing several routers of the walk is listed in each of their
   buckets, and it is deduplicated without a seen-table: its first listing
   is its meeting point (sink-tree property), and a peer listed later in
   the walk appears at a candidate distance no smaller than its earlier
   one, since path costs are non-decreasing and tree routes traverse
   shared routers in a consistent order.  So when it resurfaces it is
   either still held in [best] -- which the selector's <= k probes find --
   or it was displaced by k strictly better candidates and the cutoff
   rejects it again.  Nothing is allocated per entry. *)
let scan_bucket t router walk_cost best exclude =
  let b = find_bucket t router in
  let base = Topk.pack ~cost:walk_cost ~peer:0 in
  let ci = ref 0 in
  while
    !ci < b.nchunks
    &&
    let c = b.chunks.(!ci) in
    Topk.offer_ascending best ~base c.keys ~len:c.clen ~exclude
  do
    incr ci
  done

(* Walk the query path outward, offering every candidate into the k best.
   The walk stops once the walk cost alone can no longer tie the k-th. *)
let run_query t ~routers ~costs ~k ?(exclude = fun _ -> false) () =
  if k <= 0 then []
  else begin
    let best = Topk.shared ~k in
    let i = ref 0 in
    while
      !i < Array.length routers
      && ((not (Topk.is_full best)) || costs.(!i) <= Topk.cost_of (Topk.worst_exn best))
    do
      scan_bucket t routers.(!i) costs.(!i) best exclude;
      incr i
    done;
    Topk.drain best
  end

let query_path t ~routers ~costs ~k ?exclude () =
  if Array.length costs < Array.length routers then
    invalid_arg "Path_tree.query: fewer costs than routers";
  for i = 0 to Array.length routers - 1 do
    if not (cost_in_range costs.(i)) then invalid_arg "Path_tree.query: cost out of range"
  done;
  run_query t ~routers ~costs ~k ?exclude ()

(* The member's own stored path is the query path: nothing to copy, and
   its costs were checked when it was inserted. *)
let query_member t ~peer ~k =
  let slot = Slot_index.find t.index peer in
  if slot < 0 then raise Not_found;
  let { routers; costs } = t.routes.(slot) in
  run_query t ~routers ~costs ~k ?exclude:(Topk.excluding peer) ()

let iter_members t f = Slot_index.iter t.index (fun p _ -> f p)

let iter_buckets t f =
  Array.iteri (fun router b -> if b != empty_bucket then f router b.total) t.buckets

(* Rough payload estimate in machine words times 8.  Paths: the peer
   index, the per-slot array (1 + its length) and each distinct route
   once, however many members share it: a record (3) and its router
   array (1 + len); the cost arrays are the caller's (one shared
   positions array for every hop path) and are not counted.  Buckets:
   the router index (1 + its length), then per live bucket a record (4)
   + chunk pointer array + per chunk a record (3) and its key array (1 +
   allocated capacity).  Good for cross-backend comparison, not
   accounting. *)
let approx_bytes t =
  let words =
    ref (1 + Array.length t.buckets + Slot_index.heap_words t.index + 1 + Array.length t.routes)
  in
  let seen = Hashtbl.create 64 in
  Slot_index.iter t.index (fun _ slot ->
      let route = t.routes.(slot) in
      let key = Hashtbl.hash route.routers in
      if not (List.memq route (Hashtbl.find_all seen key)) then begin
        Hashtbl.add seen key route;
        words := !words + 4 + Array.length route.routers
      end);
  iter_buckets t (fun router _ ->
      let b = t.buckets.(router) in
      words := !words + 5 + Array.length b.chunks;
      for ci = 0 to b.nchunks - 1 do
        words := !words + 4 + Array.length b.chunks.(ci).keys
      done);
  8 * !words

(* Entries, chunks and allocated key slots over every bucket: entries
   over slots is how full the placement keeps the chunks. *)
type fill = { entries : int; chunks : int; slots : int }

let fill t =
  let chunks = ref 0 and slots = ref 0 and entries = ref 0 in
  iter_buckets t (fun router total ->
      let b = t.buckets.(router) in
      entries := !entries + total;
      chunks := !chunks + b.nchunks;
      for ci = 0 to b.nchunks - 1 do
        slots := !slots + Array.length b.chunks.(ci).keys
      done);
  { entries = !entries; chunks = !chunks; slots = !slots }

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  Slot_index.check_invariants t.index;
  Slot_index.iter t.index (fun peer slot ->
      let { routers; costs } = t.routes.(slot) in
      let len = Array.length routers in
      if len = 0 then fail "peer %d has an empty path" peer;
      if Array.length costs < len then fail "peer %d has fewer costs than routers" peer;
      if routers.(len - 1) <> t.landmark then fail "peer %d path does not end at the landmark" peer;
      for i = 0 to len - 1 do
        let b = find_bucket t routers.(i) in
        if b == empty_bucket then fail "peer %d: router %d has no bucket" peer routers.(i);
        if not (bucket_mem b (Topk.pack ~cost:costs.(i) ~peer)) then
          fail "peer %d missing from bucket of router %d" peer routers.(i)
      done);
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
        if c.clen > Array.length c.keys then fail "router %d: chunk %d overflows" router ci;
        counted := !counted + c.clen;
        if ci > 0 && last_key b.chunks.(ci - 1) > c.keys.(0) then
          fail "router %d: chunks %d and %d out of order" router (ci - 1) ci;
        for e = 0 to c.clen - 1 do
          if e > 0 && c.keys.(e - 1) > c.keys.(e) then fail "router %d: chunk %d not sorted" router ci;
          let key = c.keys.(e) in
          let peer = Topk.peer_of key and cost = Topk.cost_of key in
          let slot = Slot_index.find t.index peer in
          if slot < 0 then fail "bucket of router %d references unknown peer %d" router peer;
          let { routers; costs } = t.routes.(slot) in
          let justified = ref false in
          for i = 0 to Array.length routers - 1 do
            if routers.(i) = router && costs.(i) = cost then justified := true
          done;
          if not !justified then fail "bucket of router %d has stale entry for peer %d" router peer
        done
      done;
      if !counted <> b.total then
        fail "router %d: bucket total %d but %d entries" router b.total !counted)
