(* Bounded best-k accumulator shared by every registry backend.

   Keeps the k smallest elements seen so far in a worst-at-the-root binary
   max-heap, so offering a candidate costs O(log k) instead of the O(k)
   sorted-list insertion (O(k^2) per query) it replaces.  The element order
   is whatever [compare] says; backends pass a (cost, peer) lexicographic
   compare so equal-cost ties break to the lower peer id everywhere. *)

type 'a t = {
  k : int;
  compare : 'a -> 'a -> int;  (* ascending: smaller is better *)
  heap : 'a array;  (* slots [0, size): max-heap, worst element at the root *)
  mutable size : int;
}

let create ~k compare =
  if k < 0 then invalid_arg "Topk.create: negative k";
  { k; compare; heap = Array.make (max k 1) (Obj.magic 0); size = 0 }

let length t = t.size
let is_full t = t.size >= t.k

(* The current k-th best element, once k candidates are held. *)
let worst t = if t.size < t.k then None else Some t.heap.(0)

(* [worst] without the option, for scan loops that test [is_full] first. *)
let worst_exn t =
  if t.k = 0 || t.size < t.k then invalid_arg "Topk.worst_exn: fewer than k held";
  t.heap.(0)

(* The [i]-th held element in heap order, [0 <= i < length t]: lets a scan
   probe what is held without a closure or a list. *)
let get t i =
  if i < 0 || i >= t.size then invalid_arg "Topk.get: index out of range";
  t.heap.(i)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let sift_up t start =
  let i = ref start in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if t.compare t.heap.(parent) t.heap.(!i) < 0 then begin
      swap t parent !i;
      i := parent
    end
    else continue := false
  done

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let largest = ref !i in
    if l < t.size && t.compare t.heap.(l) t.heap.(!largest) > 0 then largest := l;
    if r < t.size && t.compare t.heap.(r) t.heap.(!largest) > 0 then largest := r;
    if !largest <> !i then begin
      swap t !largest !i;
      i := !largest
    end
    else continue := false
  done

let offer t x =
  if t.k > 0 then begin
    if t.size < t.k then begin
      t.heap.(t.size) <- x;
      t.size <- t.size + 1;
      sift_up t (t.size - 1)
    end
    else if t.compare x t.heap.(0) < 0 then begin
      (* Strictly better than the current worst: equal elements never
         displace (first-come keeps its slot, as the sorted-list code did). *)
      t.heap.(0) <- x;
      sift_down t
    end
  end

(* Ascending (best first); does not disturb the heap. *)
let to_sorted_list t =
  let out = Array.sub t.heap 0 t.size in
  Array.sort t.compare out;
  Array.to_list out
