(* A growable buffer of float samples with exact order-statistic reads.
   Every sample is kept (unboxed), so a percentile is the nearest-rank
   value of the whole run rather than a sketch estimate. *)

type t = { mutable data : float array; mutable len : int }

let create ?(capacity = 1024) () = { data = Array.make (max 1 capacity) 0.0; len = 0 }
let clear t = t.len <- 0

let add t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

let count t = t.len

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

(* Nearest-rank quantiles read off one sorted copy; [nan] when empty. *)
let quantiles t qs =
  if t.len = 0 then List.map (fun _ -> Float.nan) qs
  else begin
    let sorted = Array.sub t.data 0 t.len in
    Array.sort Float.compare sorted;
    List.map
      (fun q ->
        let rank = int_of_float (Float.ceil (q *. float_of_int t.len)) in
        sorted.(max 0 (min (t.len - 1) (rank - 1))))
      qs
  end
