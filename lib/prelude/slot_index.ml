(* Open addressing over one int array.  A cell is [key lsl 31 lor slot],
   or [-1] when empty; both halves are below 2^31, so a full cell is a
   non-negative int and [cell lsr 31] is its key.  A key's home cell is
   the top bits of a multiplicative (Fibonacci) hash, and a lookup probes
   linearly from there to the key or the first empty cell.  The table
   doubles before it passes 3/4 load.  A removal shifts the rest of its
   cluster back into the hole (Knuth's Algorithm R), so no tombstone is
   left and probe lengths depend only on the live keys.

   The probe and shift loops are top-level functions over explicit
   arguments: a local closure would be allocated on every call.  Every
   comparison here is at [int] ({!Int_compare} is open): a comparison of
   another type does not compile, so none becomes a runtime call. *)

open Int_compare

let key_limit = 1 lsl 31
let slot_mask = key_limit - 1
let empty = -1

(* An odd 63-bit constant near 2^63 / phi. *)
let golden = 0x4F1BBCDCBFA53E0B
let min_bits = 3

type t = {
  mutable cells : int array;
  mutable shift : int;  (* 63 - log2 (Array.length cells) *)
  mutable count : int;
  mutable next_slot : int;  (* slots ever handed out *)
  mutable free : int array;  (* freed slots, a stack of [nfree] *)
  mutable nfree : int;
}

let[@inline] home shift key = (key * golden) lsr shift

let create ?(capacity = 8) () =
  let bits = ref min_bits in
  while 3 lsl !bits < 4 * capacity do
    incr bits
  done;
  { cells = Array.make (1 lsl !bits) empty; shift = 63 - !bits; count = 0; next_slot = 0;
    free = [||]; nfree = 0 }

let length t = t.count
let slot_bound t = t.next_slot
let capacity t = 3 * Array.length t.cells / 4

(* The index of [key]'s cell, or of the empty cell ending its probe. *)
let rec locate cells mask key i =
  let c = Array.unsafe_get cells i in
  if c < 0 || c lsr 31 = key then i else locate cells mask key ((i + 1) land mask)

let find t key =
  if key < 0 || key >= key_limit then -1
  else
    let cells = t.cells in
    let c = Array.unsafe_get cells (locate cells (Array.length cells - 1) key (home t.shift key)) in
    if c < 0 then -1 else c land slot_mask

let mem t key = find t key >= 0

let place cells mask shift c =
  let i = locate cells mask (c lsr 31) (home shift (c lsr 31)) in
  Array.unsafe_set cells i c

let grow t =
  let old = t.cells in
  let cells = Array.make (2 * Array.length old) empty in
  let shift = t.shift - 1 in
  for i = 0 to Array.length old - 1 do
    let c = Array.unsafe_get old i in
    if c >= 0 then place cells (Array.length cells - 1) shift c
  done;
  t.cells <- cells;
  t.shift <- shift

let take_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    let s = t.next_slot in
    t.next_slot <- s + 1;
    s
  end

let add t key =
  if key < 0 || key >= key_limit then invalid_arg "Slot_index.add: key out of range";
  let i = locate t.cells (Array.length t.cells - 1) key (home t.shift key) in
  if Array.unsafe_get t.cells i >= 0 then invalid_arg "Slot_index.add: key already present";
  let i =
    if 4 * (t.count + 1) <= 3 * Array.length t.cells then i
    else begin
      grow t;
      locate t.cells (Array.length t.cells - 1) key (home t.shift key)
    end
  in
  let slot = take_slot t in
  Array.unsafe_set t.cells i ((key lsl 31) lor slot);
  t.count <- t.count + 1;
  slot

(* Close the hole at [hole]: walk the cluster after it, moving back the
   first cell whose home is not cyclically in (hole, j], then close the
   hole that move left.  The cluster's first empty cell ends the walk. *)
let rec shift_back cells mask shift hole j =
  let j = (j + 1) land mask in
  let c = Array.unsafe_get cells j in
  if c < 0 then Array.unsafe_set cells hole empty
  else
    let h = home shift (c lsr 31) in
    if if hole <= j then h <= hole || h > j else h <= hole && h > j then begin
      Array.unsafe_set cells hole c;
      shift_back cells mask shift j j
    end
    else shift_back cells mask shift hole j

let release_slot t slot =
  if t.nfree = Array.length t.free then begin
    let free = Array.make (max 8 (2 * t.nfree)) 0 in
    Array.blit t.free 0 free 0 t.nfree;
    t.free <- free
  end;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

let remove t key =
  if key < 0 || key >= key_limit then -1
  else begin
    let cells = t.cells and mask = Array.length t.cells - 1 in
    let i = locate cells mask key (home t.shift key) in
    let c = Array.unsafe_get cells i in
    if c < 0 then -1
    else begin
      shift_back cells mask t.shift i i;
      t.count <- t.count - 1;
      let slot = c land slot_mask in
      release_slot t slot;
      slot
    end
  end

let iter t f =
  let cells = t.cells in
  for i = 0 to Array.length cells - 1 do
    let c = Array.unsafe_get cells i in
    if c >= 0 then f (c lsr 31) (c land slot_mask)
  done

let fold f t init =
  let acc = ref init in
  iter t (fun key slot -> acc := f key slot !acc);
  !acc

(* The record (header + 6 fields) and both arrays with their headers. *)
let heap_words t = 7 + 1 + Array.length t.cells + 1 + Array.length t.free

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let cells = t.cells and mask = Array.length t.cells - 1 in
  if Array.length cells <> 1 lsl (63 - t.shift) then fail "table size and shift disagree";
  if 4 * t.count > 3 * Array.length cells then fail "load above 3/4";
  let used = Array.make t.next_slot false in
  let claim what slot =
    if slot < 0 || slot >= t.next_slot then fail "%s slot %d out of range" what slot;
    if used.(slot) then fail "%s slot %d held twice" what slot;
    used.(slot) <- true
  in
  let count = ref 0 in
  Array.iteri
    (fun i c ->
      if c >= 0 then begin
        incr count;
        claim "live" (c land slot_mask);
        (* Every cell from the key's home up to it is full, or a lookup
           would stop short of it. *)
        let j = ref (home t.shift (c lsr 31)) in
        while !j <> i do
          if cells.(!j) < 0 then fail "key %d unreachable from its home" (c lsr 31);
          j := (!j + 1) land mask
        done
      end
      else if c <> empty then fail "cell %d holds %d" i c)
    cells;
  if !count <> t.count then fail "%d keys counted as %d" !count t.count;
  for f = 0 to t.nfree - 1 do
    claim "free" t.free.(f)
  done;
  if t.count + t.nfree <> t.next_slot then fail "slots leaked"
