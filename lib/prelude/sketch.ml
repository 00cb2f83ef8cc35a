(* Mergeable quantile sketch with a relative-error guarantee.

   Log-bucketed in the DDSketch style: bucket [i] covers the value range
   (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha), and a bucket
   reports the value 2*gamma^i/(gamma+1) — the point whose worst-case
   relative error against anything in the bucket is exactly alpha.  Two
   sketches with the same alpha merge by adding bucket counts, which is
   what lets per-replica and per-backend latency streams roll up into one
   fleet-wide tail.

   Counts live in one dense array over a contiguous run of bucket indexes
   (slot [j] holds bucket [offset + j]), grown by half towards whichever
   side a new index falls outside.  A stream populates a narrow band
   (alpha = 0.01 spans a 100x spread of values in ~230 buckets), so the
   array stays small; an add is one log and one increment, and a quantile
   read walks the buckets in order without sorting or allocating. *)

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  mutable counts : int array;
  mutable offset : int;  (* bucket index of counts.(0) *)
  mutable zero : int;  (* NaN and values below the trackable floor *)
  mutable total : int;
  mutable min_v : float;
  mutable max_v : float;
}

let default_alpha = 0.01

(* Below this, log-bucketing explodes into deeply negative indexes for no
   analytical gain; such values (and NaN, and negatives) share one exact
   zero bucket. *)
let min_trackable = 1e-9

let create ?(alpha = default_alpha) () =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Sketch.create: alpha outside (0, 1)";
  let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
  {
    alpha;
    gamma;
    log_gamma = log gamma;
    counts = [||];
    offset = 0;
    zero = 0;
    total = 0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let alpha t = t.alpha
let count t = t.total
let is_empty t = t.total = 0

(* Infinity is clamped so its index stays a finite int. *)
let bucket_of t v = int_of_float (Float.ceil (log (Float.min v max_float) /. t.log_gamma))
let value_of t i = 2.0 *. (t.gamma ** float_of_int i) /. (t.gamma +. 1.0)

(* One below the lowest real bucket, so indexes order like values. *)
let zero_index t = bucket_of t min_trackable - 1

let bucket_index t v =
  if Float.is_nan v || v <= min_trackable then zero_index t else bucket_of t v

(* The slot of bucket [i], growing the array by at least half (the slack on
   the side [i] fell off) when [i] is outside it. *)
let slot t i =
  let len = Array.length t.counts in
  if len = 0 then begin
    t.counts <- Array.make 8 0;
    t.offset <- i
  end
  else if i < t.offset || i >= t.offset + len then begin
    let lo = Int.min i t.offset and hi = Int.max i (t.offset + len - 1) in
    let size = Int.max (len + (len / 2)) (hi - lo + 1) in
    let offset = if i < t.offset then hi - size + 1 else lo in
    let counts = Array.make size 0 in
    Array.blit t.counts 0 counts (t.offset - offset) len;
    t.counts <- counts;
    t.offset <- offset
  end;
  i - t.offset

let add t v =
  let v = if Float.is_nan v then 0.0 else v in
  if v <= min_trackable then t.zero <- t.zero + 1
  else begin
    let j = slot t (bucket_of t v) in
    t.counts.(j) <- t.counts.(j) + 1
  end;
  t.total <- t.total + 1;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.zero <- 0;
  t.total <- 0;
  t.min_v <- infinity;
  t.max_v <- neg_infinity

let merge_into ~into src =
  if into.alpha <> src.alpha then
    invalid_arg "Sketch.merge_into: relative-error bounds differ";
  Array.iteri
    (fun j c ->
      if c > 0 then begin
        let k = slot into (src.offset + j) in
        into.counts.(k) <- into.counts.(k) + c
      end)
    src.counts;
  into.zero <- into.zero + src.zero;
  into.total <- into.total + src.total;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Sketch.quantile: q outside [0, 1]";
  if t.total = 0 then nan
  else begin
    (* 0-based rank of the order statistic we are after. *)
    let rank = int_of_float (q *. float_of_int (t.total - 1)) in
    if rank < t.zero then Float.max 0.0 t.min_v
    else begin
      let rec walk j seen =
        if j >= Array.length t.counts then t.max_v
        else begin
          let seen = seen + t.counts.(j) in
          if seen > rank then
            (* Clamp to the observed extremes: the bound only tightens. *)
            Float.min t.max_v (Float.max t.min_v (value_of t (t.offset + j)))
          else walk (j + 1) seen
        end
      in
      walk 0 t.zero
    end
  end

let buckets t =
  let acc = ref [] in
  for j = Array.length t.counts - 1 downto 0 do
    let c = t.counts.(j) in
    if c > 0 then acc := (t.offset + j, t.gamma ** float_of_int (t.offset + j), c) :: !acc
  done;
  if t.zero > 0 then (zero_index t, min_trackable, t.zero) :: !acc else !acc
