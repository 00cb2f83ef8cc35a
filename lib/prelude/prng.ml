(* xoshiro256**'s 256-bit state, as four 64-bit words in one 32-byte
   buffer.  Mutable [int64] record fields would box every write (six per
   draw); words read and written with [Bytes.get/set_int64_ne] stay
   unboxed, so a draw allocates nothing of its own. *)
type t = Bytes.t

let[@inline] s0 g = Bytes.get_int64_ne g 0
let[@inline] s1 g = Bytes.get_int64_ne g 8
let[@inline] s2 g = Bytes.get_int64_ne g 16
let[@inline] s3 g = Bytes.get_int64_ne g 24

let[@inline] set g s0 s1 s2 s3 =
  Bytes.set_int64_ne g 0 s0;
  Bytes.set_int64_ne g 8 s1;
  Bytes.set_int64_ne g 16 s2;
  Bytes.set_int64_ne g 24 s3

(* splitmix64 is used only to expand the user seed into the 256-bit xoshiro
   state, as recommended by Vigna: it guarantees the state is never all
   zeroes and decorrelates consecutive integer seeds. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix seed =
  let state = ref seed in
  let g = Bytes.create 32 in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  set g s0 s1 s2 s3;
  g

let create seed = of_splitmix (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step.  Inlined into every draw below, so its result
   is boxed only where a draw returns it as an [int64]. *)
let[@inline] next g =
  let open Int64 in
  let s0 = s0 g and s1 = s1 g and s2 = s2 g and s3 = s3 g in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set g s0 s1 (logxor s2 t) (rotl s3 45);
  result

let bits64 g = next g
let split g = of_splitmix (next g)

(* Non-negative 62-bit integer, cheap and unbiased enough as a base for
   rejection sampling. *)
let[@inline] bits62 g = Int64.to_int (Int64.shift_right_logical (next g) 2)

(* Rejection sampling to avoid modulo bias: a top-level loop, so a draw
   builds no closure. *)
let rec below g ~limit bound =
  let v = bits62 g in
  if v >= limit then below g ~limit bound else v mod bound

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask_range = 0x3FFF_FFFF_FFFF_FFFF in
  below g ~limit:(mask_range - (mask_range mod bound)) bound

let int_in_range g ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int g (hi - lo + 1)

let[@inline] unit_float g =
  (* 53 random bits scaled into [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (next g) 11) in
  float_of_int v *. 0x1p-53

let float g bound = unit_float g *. bound
let bool g = Int64.logand (next g) 1L = 1L

let exponential g ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. unit_float g in
  -.mean *. log u

let exp_draw g ~rate =
  if rate <= 0.0 then invalid_arg "Prng.exp_draw: rate must be positive";
  exponential g ~mean:(1.0 /. rate)

(* Lewis-Shedler thinning: draw candidates at the envelope rate and accept
   with probability rate_at t / rate_max.  The accepted point is a draw
   from the inhomogeneous process as long as rate_at never exceeds the
   envelope, which the clamp enforces. *)
let next_arrival g ~now ~rate_max ~rate_at =
  if rate_max <= 0.0 then invalid_arg "Prng.next_arrival: rate_max must be positive";
  let rec loop t =
    let t = t +. exp_draw g ~rate:rate_max in
    let r = Float.min rate_max (Float.max 0.0 (rate_at t)) in
    if unit_float g *. rate_max < r then t else loop t
  in
  loop now

let pareto g ~alpha ~x_min =
  if alpha <= 0.0 || x_min <= 0.0 then invalid_arg "Prng.pareto: parameters must be positive";
  let u = 1.0 -. unit_float g in
  x_min /. (u ** (1.0 /. alpha))

let normal g ~mu ~sigma =
  let u1 = 1.0 -. unit_float g in
  let u2 = unit_float g in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let geometric g ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. unit_float g in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

(* Rejection-inversion sampling for the Zipf distribution, after Hormann and
   Derflinger (1996).  Constant expected cost per draw, independent of [n]. *)
let zipf g ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  if s <= 0.0 then invalid_arg "Prng.zipf: s must be positive";
  if n = 1 then 1
  else if abs_float (s -. 1.0) < 1e-12 then begin
    (* Harmonic case: direct inversion on the harmonic CDF. *)
    let h_n =
      let acc = ref 0.0 in
      for k = 1 to n do
        acc := !acc +. (1.0 /. float_of_int k)
      done;
      !acc
    in
    let target = unit_float g *. h_n in
    let rec walk k acc =
      let acc = acc +. (1.0 /. float_of_int k) in
      if acc >= target || k = n then k else walk (k + 1) acc
    in
    walk 1 0.0
  end
  else begin
    let one_minus_s = 1.0 -. s in
    let h x = (x ** one_minus_s) /. one_minus_s in
    let h_inv x = (one_minus_s *. x) ** (1.0 /. one_minus_s) in
    let h_x1 = h 1.5 -. (1.0 ** -.s) in
    let h_n = h (float_of_int n +. 0.5) in
    let rec loop () =
      let u = h_x1 +. (unit_float g *. (h_n -. h_x1)) in
      let x = h_inv u in
      let k = int_of_float (Float.round x) in
      let k = if k < 1 then 1 else if k > n then n else k in
      if u >= h (float_of_int k +. 0.5) -. (float_of_int k ** -.s) then k else loop ()
    in
    loop ()
  end

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

let sample_without_replacement g ~k ~n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement: need 0 <= k <= n";
  if 3 * k >= n then begin
    (* Dense regime: partial Fisher-Yates over the full index range. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = int_in_range g ~lo:i ~hi:(n - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end
  else begin
    (* Sparse regime: rejection with a hash set, O(k) expected. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int g n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
