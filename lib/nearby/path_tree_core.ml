(* Every comparison in this module is at [int] ({!Prelude.Int_compare} is
   open): router ids, costs, peer ids and packed keys are all ints, so a
   comparison is one machine instruction, and one of any other type does
   not compile rather than calling the runtime's generic compare. *)

open Prelude.Int_compare

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

   The tree keeps two levels of buckets of one kind: a sorted run of ints
   in a short array of sorted chunks.  A stored route lists its members'
   peer ids in one.  A router's bucket holds one entry per route crossing
   it, the packed int [cost lsl 31 lor rep] ({!Topk.pack}) of the route's
   cost there and its lowest member, with the route itself at the same
   position of a parallel array of the chunk.  Ascending int order is
   ascending (cost, peer) order: a search compares ints, a shift moves one
   array (two in a router's chunk), a scan reads one array.  Insertion is
   a binary search to the right chunk plus a shift; a chunk's array is a
   power of two from [seed_cap] to [chunk_cap] slots, so a single insert
   never moves more than [chunk_cap] entries.

   Chunks are kept full.  Members join in id order, so a run takes its
   inserts at a few fixed points (a route's members at its end), and a
   chunk split in half would leave the half without such a point half
   full for good.  So a key falling between two chunks goes to the end
   of the earlier one; a full chunk first moves entries into a neighbour
   that has room; and only a full chunk between full neighbours splits,
   at the insertion point.  A removal leaving a chunk at most a quarter
   full merges it into a neighbour that can take it.  There is one
   insertion path, so a tree's layout depends only on the sequence of
   operations. *)

let chunk_cap = 256
let seed_cap = 1

(* [vals.(i)] is the route of the entry [keys.(i)] in a router's chunk;
   a route's member chunk has [vals = [||]].  Slots of [vals] past [clen]
   hold [no_route], so a chunk keeps no dropped route alive. *)
type chunk = { mutable keys : int array; mutable vals : route array; mutable clen : int }
and bucket = { mutable chunks : chunk array; mutable nchunks : int }

(* A stored route: the router array and the cost array of the insert
   that first stored it, and its members ascending, [head] being
   [members]' first chunk: a query reaches a route's lowest members in
   two reads.  The costs are kept by reference and read only up to the
   route's length (every {!Path_tree} path shares one positions array,
   so a hop path stores no costs of its own).  Its routers and costs are
   never written after it is built, so members with equal routes share
   one. *)
and route = {
  routers : Topology.Graph.node array;
  costs : int array;
  members : bucket;
  mutable head : chunk;
}

(* Shared by every empty slot of every tree: never written, since
   [bucket_of] swaps in a fresh bucket before the first entry. *)
let empty_bucket = { chunks = [||]; nchunks = 0 }

(* Fills the unused tail of a bucket's chunk array. *)
let no_chunk = { keys = [||]; vals = [||]; clen = 0 }

(* Fills every free member slot and every unused slot of a router
   chunk's [vals]; a member bucket's insert passes it as its value. *)
let no_route = { routers = [||]; costs = [||]; members = empty_bucket; head = no_chunk }

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

let paired c = Array.length c.vals > 0

let make_chunk ~paired cap =
  { keys = Array.make cap 0; vals = (if paired then Array.make cap no_route else [||]); clen = 0 }

let set c i key v =
  c.keys.(i) <- key;
  if paired c then c.vals.(i) <- v

(* Entries [soff, soff + len) of [src] to [doff] of [dst], keys and
   routes alike; overlapping ranges copy like [memmove]. *)
let blit src soff dst doff len =
  int_blit src.keys soff dst.keys doff len;
  if paired src then Array.blit src.vals soff dst.vals doff len

(* Empty the route slots [from, upto) of [c] once their entries left. *)
let forget c from upto = if paired c then Array.fill c.vals from (upto - from) no_route

let reserve c n =
  if n > Array.length c.keys then begin
    let grown = make_chunk ~paired:(paired c) (capacity_for n) in
    blit c 0 grown 0 c.clen;
    c.keys <- grown.keys;
    c.vals <- grown.vals
  end

let first_key b = b.chunks.(0).keys.(0)

(* Entries of [b]: a sum over its few chunks. *)
let size b =
  let n = ref 0 in
  for ci = 0 to b.nchunks - 1 do
    n := !n + b.chunks.(ci).clen
  done;
  !n
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
    let arr = Array.make (max 1 (2 * n)) no_chunk in
    Array.blit b.chunks 0 arr 0 n;
    b.chunks <- arr
  end;
  Array.blit b.chunks ci b.chunks (ci + 1) (n - ci);
  b.chunks.(ci) <- c;
  b.nchunks <- n + 1

let bucket_drop_chunk b ci =
  Array.blit b.chunks (ci + 1) b.chunks ci (b.nchunks - ci - 1);
  b.nchunks <- b.nchunks - 1;
  b.chunks.(b.nchunks) <- no_chunk

let chunk_insert_at c pos key v =
  reserve c (c.clen + 1);
  let n = c.clen in
  blit c pos c (pos + 1) (n - pos);
  set c pos key v;
  c.clen <- n + 1

(* Move the first [m] entries of [c] to the end of [left]. *)
let move_to_left left c m =
  reserve left (left.clen + m);
  blit c 0 left left.clen m;
  left.clen <- left.clen + m;
  blit c m c 0 (c.clen - m);
  forget c (c.clen - m) c.clen;
  c.clen <- c.clen - m

(* Move the last [m] entries of [c] to the front of [right]. *)
let move_to_right c right m =
  reserve right (right.clen + m);
  blit right 0 right m right.clen;
  blit c (c.clen - m) right 0 m;
  right.clen <- right.clen + m;
  forget c (c.clen - m) c.clen;
  c.clen <- c.clen - m

(* Split the full chunk [ci] where [key] goes, at [pos]: the entries
   below [pos] and those from [pos] on.  The key joins the smaller part,
   which gets the smallest array that holds it; the larger part keeps the
   old array. *)
let split_at b ci pos key v =
  let c = b.chunks.(ci) in
  let n = c.clen in
  if 2 * pos <= n then begin
    let lower = make_chunk ~paired:(paired c) (capacity_for (pos + 1)) in
    blit c 0 lower 0 pos;
    set lower pos key v;
    lower.clen <- pos + 1;
    blit c pos c 0 (n - pos);
    forget c (n - pos) n;
    c.clen <- n - pos;
    bucket_insert_chunk b ci lower
  end
  else begin
    let upper = make_chunk ~paired:(paired c) (capacity_for (n - pos + 1)) in
    set upper 0 key v;
    blit c pos upper 1 (n - pos);
    upper.clen <- n - pos + 1;
    forget c pos n;
    c.clen <- pos;
    bucket_insert_chunk b (ci + 1) upper
  end

let room c = chunk_cap - c.clen

(* Add [key], with route [v] in a router's bucket and [no_route] in a
   route's member bucket. *)
let bucket_add b key v =
  if b.nchunks = 0 then begin
    let c = make_chunk ~paired:(v != no_route) seed_cap in
    set c 0 key v;
    c.clen <- 1;
    bucket_insert_chunk b 0 c
  end
  else begin
    let ci = bucket_chunk_for b key in
    let c = b.chunks.(ci) in
    let pos = chunk_lower c key in
    let left = if ci > 0 then b.chunks.(ci - 1) else c in
    let right = if ci + 1 < b.nchunks then b.chunks.(ci + 1) else c in
    if pos = 0 && left != c && room left > 0 then chunk_insert_at left left.clen key v
    else if room c > 0 then chunk_insert_at c pos key v
    else if pos > 0 && left != c && room left > 0 then begin
      let m = min pos (room left) in
      move_to_left left c m;
      chunk_insert_at c (pos - m) key v
    end
    else if pos < c.clen && right != c && room right > 0 then begin
      move_to_right c right (min (c.clen - pos) (room right));
      chunk_insert_at c pos key v
    end
    else split_at b ci pos key v
  end

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
      blit c (pos + 1) c pos (c.clen - pos - 1);
      forget c (c.clen - 1) c.clen;
      c.clen <- c.clen - 1;
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
    let b = { chunks = [||]; nchunks = 0 } in
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
   so members on one router mostly register one route, and the tree
   stores each distinct route once.  An insert looks among the routes
   entering [routers.(0)]'s bucket at [costs.(0)] for an equal one: the
   new member then joins its member run, and writes into a router bucket
   only when it becomes the route's lowest member (the route's entries
   are re-keyed).  Otherwise the routers are copied (the costs kept as
   given) into a new route, which writes one entry into each of its
   routers' buckets.  Every check runs before the first write, so a
   refused insert leaves the tree as it was. *)

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

(* A route's second lowest member, or -1 when it has one member. *)
let second_member m =
  let c = m.chunks.(0) in
  if c.clen > 1 then c.keys.(1) else if m.nchunks > 1 then m.chunks.(1).keys.(0) else -1

(* The smallest key over the entries of [b] from chunk [ci], position
   [pos] on, each standing for its route's members at its cost, whose
   peer is not [except]; [best] when none is smaller.  An entry's key is
   the smallest its route gives, so the walk ends at the first entry not
   below [best]: past the head only when [except] heads it, and then one
   entry further at most, unless a router repeated in [except]'s own
   path puts more of its route's entries there. *)
let rec smallest_other b ci pos ~except best =
  if ci >= b.nchunks then best
  else
    let c = b.chunks.(ci) in
    if pos >= c.clen then smallest_other b (ci + 1) 0 ~except best
    else
      let key = c.keys.(pos) in
      if key >= best then best
      else
        let own =
          if Topk.peer_of key <> except then key
          else
            let second = second_member c.vals.(pos).members in
            if second < 0 then max_int else key - except + second
        in
        smallest_other b ci (pos + 1) ~except (Int.min own best)

(* The head of [router]'s bucket: the member nearest to the router. *)
let member_through t router ~except =
  let best = smallest_other (find_bucket t router) 0 0 ~except max_int in
  if best = max_int then -1 else Topk.peer_of best

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

(* The route of an entry of [b] from chunk [ci], position [pos] on, below
   [limit], that equals [routers]/[costs]; [no_route] when none does. *)
let rec equal_route b ci pos limit routers costs =
  if ci >= b.nchunks then no_route
  else
    let c = b.chunks.(ci) in
    if pos >= c.clen then equal_route b (ci + 1) 0 limit routers costs
    else if c.keys.(pos) >= limit then no_route
    else if same_route c.vals.(pos) routers costs then c.vals.(pos)
    else equal_route b ci (pos + 1) limit routers costs

(* The stored route equal to [routers]/[costs], or [no_route]: it would
   have an entry at [routers.(0)] with cost [costs.(0)]. *)
let stored_route t routers costs =
  let b = find_bucket t routers.(0) in
  if b.nchunks = 0 then no_route
  else begin
    let from = Topk.pack ~cost:costs.(0) ~peer:0 in
    let ci = bucket_chunk_for b from in
    equal_route b ci (chunk_lower b.chunks.(ci) from)
      (Topk.pack ~cost:(costs.(0) + 1) ~peer:0)
      routers costs
  end

(* One entry of [route] per router on it, keyed by its lowest member
   [rep]. *)
let add_entries t route rep =
  let { routers; costs; _ } = route in
  for i = 0 to Array.length routers - 1 do
    bucket_add (bucket_of t routers.(i)) (Topk.pack ~cost:costs.(i) ~peer:rep) route
  done

let remove_entries t route rep =
  let { routers; costs; _ } = route in
  for i = 0 to Array.length routers - 1 do
    let router = routers.(i) in
    let b = t.buckets.(router) in
    (* [empty_bucket] when a router repeats in the path. *)
    if b != empty_bucket then begin
      bucket_remove b (Topk.pack ~cost:costs.(i) ~peer:rep);
      if b.nchunks = 0 then begin
        t.buckets.(router) <- empty_bucket;
        t.live <- t.live - 1
      end
    end
  done

(* Key [route]'s entries by its new lowest member [rep] instead of
   [from].  Each bucket takes the new key before it drops the old, so it
   never empties on the way. *)
let rekey t route ~from ~rep =
  let { routers; costs; _ } = route in
  for i = 0 to Array.length routers - 1 do
    let b = t.buckets.(routers.(i)) in
    bucket_add b (Topk.pack ~cost:costs.(i) ~peer:rep) route;
    bucket_remove b (Topk.pack ~cost:costs.(i) ~peer:from)
  done

let insert_path t ~peer ~routers ~costs =
  validate t ~peer ~routers ~costs;
  let stored = stored_route t routers costs in
  let slot = Slot_index.add t.index peer in
  ensure_slot t slot;
  if stored != no_route then begin
    let rep = first_key stored.members in
    bucket_add stored.members peer no_route;
    stored.head <- stored.members.chunks.(0);
    t.routes.(slot) <- stored;
    if peer < rep then rekey t stored ~from:rep ~rep:peer
  end
  else begin
    let members = { chunks = [||]; nchunks = 0 } in
    bucket_add members peer no_route;
    let route = { routers = Array.copy routers; costs; members; head = members.chunks.(0) } in
    t.routes.(slot) <- route;
    add_entries t route peer
  end

let remove t peer =
  let slot = Slot_index.remove t.index peer in
  if slot < 0 then raise Not_found;
  let route = t.routes.(slot) in
  t.routes.(slot) <- no_route;
  let members = route.members in
  let rep = first_key members in
  bucket_remove members peer;
  if members.nchunks = 0 then remove_entries t route peer
  else begin
    route.head <- members.chunks.(0);
    if peer = rep then rekey t route ~from:peer ~rep:(first_key members)
  end

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
   cost to the router plus the route's cost to it, with one of the
   route's members.

   Offer the members of the routes in [router]'s bucket, reached at
   [walk_cost]: entries ascending, each route's members ascending.
   {!Topk.offer_ascending} stops a route at the first member losing the
   full lexicographic (cost, peer) comparison against the k-th best, and
   the bucket stops at the first entry whose own key, its lowest member
   (excluded or not), loses: every later entry is larger, and so is
   every member behind it.

   A peer crossing several routers of the walk is listed in each of their
   buckets, and it is deduplicated without a seen-table: its first listing
   is its meeting point (sink-tree property), and a peer listed later in
   the walk appears at a candidate distance no smaller than its earlier
   one, since path costs are non-decreasing and tree routes traverse
   shared routers in a consistent order.  So when it resurfaces it is
   either still held in [best] -- which the selector's <= k probes find --
   or it was displaced by k strictly better candidates and the cutoff
   rejects it again.  Within one bucket a peer sits in one route, whose
   entries there ascend.  The k best are the k smallest offered keys
   whatever their order, so offering route by route keeps the answer.
   Nothing is allocated per entry. *)

(* Offer a route's members from chunk [ci] on, all at [base]. *)
let rec offer_members best base m ci exclude =
  if ci < m.nchunks then begin
    let c = m.chunks.(ci) in
    if Topk.offer_ascending best ~base c.keys ~len:c.clen ~exclude then
      offer_members best base m (ci + 1) exclude
  end

(* The entries of [b] from chunk [ci], position [pos] on, at [base]: a
   route's members at [base] plus its cost there, which is the entry's
   key less its lowest member.  The bucket stops at an entry whose key
   cannot enter, before reading its route. *)
let rec scan_entries best base b ci pos exclude =
  if ci < b.nchunks then begin
    let c = b.chunks.(ci) in
    if pos >= c.clen then scan_entries best base b (ci + 1) 0 exclude
    else begin
      let key = base + c.keys.(pos) in
      if not (Topk.is_full best && key > Topk.worst_exn best) then begin
        let route = c.vals.(pos) in
        let head = route.head in
        let at = key - head.keys.(0) in
        if Topk.offer_ascending best ~base:at head.keys ~len:head.clen ~exclude then
          offer_members best at route.members 1 exclude;
        scan_entries best base b ci (pos + 1) exclude
      end
    end
  end

let scan_bucket t router walk_cost best exclude =
  scan_entries best (Topk.pack ~cost:walk_cost ~peer:0) (find_bucket t router) 0 0 exclude

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
  let { routers; costs; _ } = t.routes.(slot) in
  run_query t ~routers ~costs ~k ?exclude:(Topk.excluding peer) ()

let iter_members t f = Slot_index.iter t.index (fun p _ -> f p)

(* Each route once, at its lowest member. *)
let iter_routes t f =
  Slot_index.iter t.index (fun peer slot ->
      let route = t.routes.(slot) in
      if first_key route.members = peer then f route)

(* Members listed behind the entries of [b]. *)
let members_behind b =
  let n = ref 0 in
  for ci = 0 to b.nchunks - 1 do
    let c = b.chunks.(ci) in
    for e = 0 to c.clen - 1 do
      n := !n + size c.vals.(e).members
    done
  done;
  !n

let iter_buckets t f =
  Array.iteri (fun router b -> if b != empty_bucket then f router (members_behind b)) t.buckets

(* Words of a bucket: its record (3) and chunk pointer array (1 + its
   length), and per chunk a record (4), its key array (1 + allocated
   capacity) and, in a router's bucket, its route array (the same). *)
let bucket_words b =
  let words = ref (4 + Array.length b.chunks) in
  for ci = 0 to b.nchunks - 1 do
    let c = b.chunks.(ci) in
    words := !words + 5 + Array.length c.keys + if paired c then 1 + Array.length c.vals else 0
  done;
  !words

(* Rough payload estimate in machine words times 8: the peer index, the
   per-slot array (1 + its length), each distinct route once, however
   many members share it -- a record (5), its router array (1 + len) and
   its member bucket -- then the router index (1 + its length) and every
   live router bucket.  The cost arrays are the caller's (one shared
   positions array for every hop path) and are not counted.  Good for
   cross-backend comparison, not accounting. *)
let approx_bytes t =
  let words =
    ref (1 + Array.length t.buckets + Slot_index.heap_words t.index + 1 + Array.length t.routes)
  in
  iter_routes t (fun route ->
      words := !words + 6 + Array.length route.routers + bucket_words route.members);
  Array.iter (fun b -> if b != empty_bucket then words := !words + bucket_words b) t.buckets;
  8 * !words

(* Entries, chunks and allocated key slots over the router buckets, then
   the stored routes and the chunks and key slots of their member
   buckets: entries over slots is how full the placement keeps the
   chunks. *)
type fill = {
  entries : int;
  chunks : int;
  slots : int;
  stored_routes : int;
  member_chunks : int;
  member_slots : int;
}

let chunk_slots b =
  let slots = ref 0 in
  for ci = 0 to b.nchunks - 1 do
    slots := !slots + Array.length b.chunks.(ci).keys
  done;
  !slots

let fill t =
  let entries = ref 0 and chunks = ref 0 and slots = ref 0 in
  Array.iter
    (fun b ->
      entries := !entries + size b;
      chunks := !chunks + b.nchunks;
      slots := !slots + chunk_slots b)
    t.buckets;
  let stored_routes = ref 0 and member_chunks = ref 0 and member_slots = ref 0 in
  iter_routes t (fun route ->
      incr stored_routes;
      member_chunks := !member_chunks + route.members.nchunks;
      member_slots := !member_slots + chunk_slots route.members);
  {
    entries = !entries;
    chunks = !chunks;
    slots = !slots;
    stored_routes = !stored_routes;
    member_chunks = !member_chunks;
    member_slots = !member_slots;
  }

(* The chunk structure of [b]: chunks non-empty, within capacity and
   sorted as one run ([strict]: with no key twice),
   route slots present in a router's chunks alone ([routed]) and empty
   past the entries, the chunk array's tail empty. *)
let check_bucket what id b ~strict ~routed =
  let fail fmt = Printf.ksprintf (fun s -> failwith (Printf.sprintf "%s %d: %s" what id s)) fmt in
  if b.nchunks = 0 then fail "empty bucket";
  if b.nchunks > Array.length b.chunks then fail "nchunks out of range";
  for ci = b.nchunks to Array.length b.chunks - 1 do
    if b.chunks.(ci) != no_chunk then fail "chunk slot %d past the end is in use" ci
  done;
  let prev = ref min_int in
  for ci = 0 to b.nchunks - 1 do
    let c = b.chunks.(ci) in
    if c.clen = 0 then fail "empty chunk %d" ci;
    if c.clen > Array.length c.keys then fail "chunk %d overflows" ci;
    if not (Bool.equal (paired c) routed) then fail "chunk %d has the wrong kind" ci;
    if routed && Array.length c.vals <> Array.length c.keys then
      fail "chunk %d has %d route slots for %d keys" ci (Array.length c.vals)
        (Array.length c.keys);
    for e = 0 to c.clen - 1 do
      let key = c.keys.(e) in
      if key < !prev || (strict && key = !prev) then fail "chunk %d not sorted" ci;
      prev := key
    done;
    for e = c.clen to Array.length c.vals - 1 do
      if c.vals.(e) != no_route then fail "chunk %d keeps a route past its entries" ci
    done
  done

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  Slot_index.check_invariants t.index;
  (* Every member's route lists it; each route, checked at its lowest
     member, lists members that point back at it and has an entry at each
     router on it, keyed by its cost there and that member. *)
  let expected = ref 0 in
  Slot_index.iter t.index (fun peer slot ->
      let route = t.routes.(slot) in
      let { routers; costs; members; _ } = route in
      if not (bucket_mem members peer) then fail "peer %d: its route does not list it" peer;
      if first_key members = peer then begin
        check_bucket "route of peer" peer members ~strict:true
          ~routed:false;
        if route.head != members.chunks.(0) then
          fail "peer %d's route: head is not its first chunk" peer;
        for ci = 0 to members.nchunks - 1 do
          let c = members.chunks.(ci) in
          for e = 0 to c.clen - 1 do
            let m = c.keys.(e) in
            let s = Slot_index.find t.index m in
            if s < 0 || t.routes.(s) != route then
              fail "member %d of peer %d's route is stored elsewhere" m peer
          done
        done;
        let len = Array.length routers in
        if len = 0 then fail "peer %d has an empty path" peer;
        if Array.length costs < len then fail "peer %d has fewer costs than routers" peer;
        if routers.(len - 1) <> t.landmark then
          fail "peer %d path does not end at the landmark" peer;
        for i = 0 to len - 1 do
          let b = find_bucket t routers.(i) in
          if b == empty_bucket then fail "peer %d: router %d has no bucket" peer routers.(i);
          let key = Topk.pack ~cost:costs.(i) ~peer in
          let c = b.chunks.(bucket_chunk_for b key) in
          let pos = chunk_lower c key in
          if not (pos < c.clen && c.keys.(pos) = key && c.vals.(pos) == route) then
            fail "peer %d's route missing from bucket of router %d" peer routers.(i)
        done;
        expected := !expected + len
      end);
  if empty_bucket.nchunks <> 0 then fail "the empty bucket was written";
  let live = ref 0 and entries = ref 0 in
  (* Conversely, every entry is a stored route's, keyed by its lowest
     member and its cost at that router. *)
  Array.iteri
    (fun router b ->
      if b != empty_bucket then begin
        incr live;
        entries := !entries + size b;
        check_bucket "router" router b ~strict:false ~routed:true;
        for ci = 0 to b.nchunks - 1 do
          let c = b.chunks.(ci) in
          for e = 0 to c.clen - 1 do
            let key = c.keys.(e) and route = c.vals.(e) in
            let rep = Topk.peer_of key and cost = Topk.cost_of key in
            let slot = Slot_index.find t.index rep in
            if slot < 0 || t.routes.(slot) != route || first_key route.members <> rep then
              fail "bucket of router %d has a stale entry for peer %d" router rep;
            let justified = ref false in
            Array.iteri
              (fun i r -> if r = router && route.costs.(i) = cost then justified := true)
              route.routers;
            if not !justified then fail "bucket of router %d has a stray entry for peer %d" router rep
          done
        done
      end)
    t.buckets;
  if !live <> t.live then fail "%d live buckets counted as %d" !live t.live;
  if !entries <> !expected then fail "%d router entries for routes calling for %d" !entries !expected
