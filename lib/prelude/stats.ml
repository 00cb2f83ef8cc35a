(* Every field a float, so the record is a flat float block and [add]
   stores its results unboxed: the count is kept as a float for that. *)
type t = {
  mutable n : float;
  mutable mean_acc : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable sum_acc : float;
}

let create () = { n = 0.0; mean_acc = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity; sum_acc = 0.0 }

let add t x =
  t.n <- t.n +. 1.0;
  let delta = x -. t.mean_acc in
  t.mean_acc <- t.mean_acc +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean_acc));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  t.sum_acc <- t.sum_acc +. x

let count t = int_of_float t.n
let mean t = if t.n = 0.0 then 0.0 else t.mean_acc
let variance t = if t.n < 2.0 then 0.0 else t.m2 /. (t.n -. 1.0)
let stddev t = sqrt (variance t)

let min_value t = if t.n = 0.0 then invalid_arg "Stats.min_value: empty" else t.min_v
let max_value t = if t.n = 0.0 then invalid_arg "Stats.max_value: empty" else t.max_v
let min_opt t = if t.n = 0.0 then None else Some t.min_v
let max_opt t = if t.n = 0.0 then None else Some t.max_v
let sum t = t.sum_acc

let clear t =
  t.n <- 0.0;
  t.mean_acc <- 0.0;
  t.m2 <- 0.0;
  t.min_v <- infinity;
  t.max_v <- neg_infinity;
  t.sum_acc <- 0.0

let ci95_halfwidth t = if t.n < 2.0 then 0.0 else 1.96 *. stddev t /. sqrt t.n

let merge a b =
  if a.n = 0.0 then { b with n = b.n }
  else if b.n = 0.0 then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean_acc -. a.mean_acc in
    let mean_acc = a.mean_acc +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    {
      n;
      mean_acc;
      m2;
      min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v;
      sum_acc = a.sum_acc +. b.sum_acc;
    }
  end

let merge_into ~into src =
  if src.n > 0.0 then begin
    if into.n = 0.0 then begin
      into.n <- src.n;
      into.mean_acc <- src.mean_acc;
      into.m2 <- src.m2;
      into.min_v <- src.min_v;
      into.max_v <- src.max_v;
      into.sum_acc <- src.sum_acc
    end
    else begin
      let n = into.n +. src.n in
      let delta = src.mean_acc -. into.mean_acc in
      let mean_acc = into.mean_acc +. (delta *. src.n /. n) in
      let m2 = into.m2 +. src.m2 +. (delta *. delta *. into.n *. src.n /. n) in
      into.n <- n;
      into.mean_acc <- mean_acc;
      into.m2 <- m2;
      if src.min_v < into.min_v then into.min_v <- src.min_v;
      if src.max_v > into.max_v then into.max_v <- src.max_v;
      into.sum_acc <- into.sum_acc +. src.sum_acc
    end
  end

let mean_of xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.0
