(* [Hashtbl.hash] on an int, computed in OCaml rather than through the
   runtime's generic [caml_hash], which walks a queue of values for every
   call.  For an immediate, [caml_hash] (seed 0) is one MurmurHash3 mix of
   the tagged value [2x + 1] folded to 32 bits, then the final mix, then
   30 bits: the same arithmetic here, each product masked to 32 bits. *)
let mask32 = 0xFFFF_FFFF
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let hash x =
  (* [caml_hash_mix_intnat]: the tagged value's low word, xor its high
     word and its sign, so a value in [-2^31, 2^31) keeps its low word. *)
  let n = ((x lsl 1) lor 1) lxor (x asr 31) lxor (x asr 62) land mask32 in
  let d = n * 0xcc9e2d51 land mask32 in
  let d = rotl32 d 15 * 0x1b873593 land mask32 in
  let h = rotl32 d 13 in
  let h = ((h * 5) + 0xe6546b64) land mask32 in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land mask32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land mask32 in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
