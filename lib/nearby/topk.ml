(* The k smallest packed keys seen so far sit in a worst-at-the-root
   binary max-heap: O(log k) per offer, one machine comparison per step,
   no tuple and no compare closure. *)

let peer_bits = 31
let peer_mask = (1 lsl peer_bits) - 1
let peer_limit = 1 lsl peer_bits

(* Two costs below 2^30 sum below 2^31, and that sum packed with a peer
   stays below [max_int]: a walk cost plus an entry cost always packs. *)
let cost_limit = 1 lsl 30

let pack ~cost ~peer = (cost lsl peer_bits) lor peer
let peer_of key = key land peer_mask
let cost_of key = key lsr peer_bits

type t = {
  mutable k : int;
  mutable heap : int array;  (* slots [0, size): max-heap, worst key at the root *)
  mutable size : int;
}

(* One selector per domain, reset by each query: a query allocates no
   selector, and no server or tree holds one.  Its heap grows only as far
   as a query fills it, so a large [k] over a small population costs
   nothing up front. *)
let selector = Domain.DLS.new_key (fun () -> { k = 0; heap = Array.make 8 0; size = 0 })

let shared ~k =
  if k < 0 then invalid_arg "Topk.shared: negative k";
  let t = Domain.DLS.get selector in
  t.k <- k;
  t.size <- 0;
  t

(* The peer a member's query leaves out of its own answer, one cell per
   domain, and a predicate over it built with the cell: naming the asker
   allocates no closure and no [Some]. *)
type asker = { mutable peer : int; is_asker : (int -> bool) option }

let asker =
  Domain.DLS.new_key (fun () ->
      let rec cell = { peer = -1; is_asker = Some (fun p -> p = cell.peer) } in
      cell)

let excluding peer =
  let cell = Domain.DLS.get asker in
  cell.peer <- peer;
  cell.is_asker

let is_full t = t.size >= t.k

(* The current k-th best key; the scan loops test [is_full] first. *)
let worst_exn t =
  if t.k = 0 || t.size < t.k then invalid_arg "Topk.worst_exn: fewer than k held";
  Array.unsafe_get t.heap 0

(* Does [t] hold a key for [peer]?  At most k probes.  This loop and
   [offer_from] are top-level functions, not local closures, so a scan
   allocates nothing per entry. *)
let rec holds_from t peer i =
  i < t.size && (peer_of (Array.unsafe_get t.heap i) = peer || holds_from t peer (i + 1))

(* Move the hole at [i] toward the root until [x] fits there. *)
let rec sift_up heap x i =
  let parent = (i - 1) / 2 in
  if i > 0 && heap.(parent) < x then begin
    heap.(i) <- heap.(parent);
    sift_up heap x parent
  end
  else heap.(i) <- x

(* Move the hole at [i] toward the leaves of [0, size) until [x] fits. *)
let rec sift_down heap size x i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < size && heap.(l + 1) > heap.(l) then l + 1 else l in
  if l < size && heap.(c) > x then begin
    heap.(i) <- heap.(c);
    sift_down heap size x c
  end
  else heap.(i) <- x

let grow t =
  let heap = Array.make (min t.k (2 * Array.length t.heap)) 0 in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let offer t key =
  if t.size < t.k then begin
    if t.size = Array.length t.heap then grow t;
    t.size <- t.size + 1;
    sift_up t.heap key (t.size - 1)
  end
  else if t.k > 0 && key < t.heap.(0) then
    (* Strictly better than the current worst: an equal key never
       displaces, so the first offer keeps its slot. *)
    sift_down t.heap t.size key 0

(* Full, and [key] loses to the worst held key.  At k = 0 a key that
   passes is dropped by [offer]. *)
let cannot_enter t key = t.size >= t.k && key > t.heap.(0)

let rec offer_from t base keys len exclude e =
  e >= len
  ||
  let key = base + keys.(e) in
  (not (cannot_enter t key))
  &&
  let peer = peer_of key in
  if not (exclude peer || holds_from t peer 0) then offer t key;
  offer_from t base keys len exclude (e + 1)

let offer_ascending t ~base keys ~len ~exclude = offer_from t base keys len exclude 0

(* Pop the worst key onto the front of the list until the heap is empty,
   so the pairs come out ascending. *)
let drain t =
  let out = ref [] in
  while t.size > 0 do
    let key = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then sift_down t.heap t.size t.heap.(t.size) 0;
    out := (peer_of key, cost_of key) :: !out
  done;
  !out

(* One step of [offer_from], for a caller that does not scan an array.
   Defined last: it leaves the code of the scan above where it was. *)
let offer_new t key ~exclude =
  (not (cannot_enter t key))
  &&
  let peer = peer_of key in
  if not (exclude peer || holds_from t peer 0) then offer t key;
  true
