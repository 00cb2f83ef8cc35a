(* Prng: determinism, ranges and distribution sanity. *)

open Prelude

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "seeds 1 and 2 differ" true !differs

let test_copy_independent () =
  let a = Prng.create 7 in
  let b = Prng.copy a in
  Alcotest.(check int64) "copies agree" (Prng.bits64 a) (Prng.bits64 b);
  (* Draws from [a] do not advance [b]: it replays them. *)
  let a1 = Prng.bits64 a in
  let a2 = Prng.bits64 a in
  Alcotest.(check int64) "the copy replays draw 1" a1 (Prng.bits64 b);
  Alcotest.(check int64) "the copy replays draw 2" a2 (Prng.bits64 b);
  ignore (Prng.bits64 a);
  let a' = Prng.bits64 a and b' = Prng.bits64 b in
  Alcotest.(check bool) "streams diverge after unequal draws" true (a' <> b')

(* The first 8 outputs, as xoshiro256** seeded through splitmix64 gave
   them when the state was four mutable [int64] fields: a change to how
   the state is held must reproduce them bit for bit. *)
let pinned =
  [
    ( "seed 0",
      (fun () -> Prng.create 0),
      [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L; 0x6aa594f1262d2d2cL;
        0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL; 0x6c160deed2f54c98L; 0x8920ad648fc30a3fL ] );
    ( "seed 1",
      (fun () -> Prng.create 1),
      [ 0xb3f2af6d0fc710c5L; 0x853b559647364ceaL; 0x92f89756082a4514L; 0x642e1c7bc266a3a7L;
        0xb27a48e29a233673L; 0x24c123126ffda722L; 0x123004ef8df510e6L; 0x61954dcc47b1e89dL ] );
    ( "seed 42",
      (fun () -> Prng.create 42),
      [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L; 0xecb8ad4703b360a1L;
        0xfde6dc7fe2ec5e64L; 0xc50da53101795238L; 0xb82154855a65ddb2L; 0xd99a2743ebe60087L ] );
    ( "split child of seed 42",
      (fun () -> Prng.split (Prng.create 42)),
      [ 0x8ee445d14631c453L; 0x106fa1a13296fe62L; 0x729a768806244ce5L; 0x91d83a17b20e6585L;
        0x38c33df442fc70fdL; 0xe33cd1b92e2e42f1L; 0x3162280b9dcfa5efL; 0xb4f9f0541228b854L ] );
    ( "seed 42 after a split",
      (fun () ->
        let g = Prng.create 42 in
        ignore (Prng.split g);
        g),
      [ 0x6104d9866d113a7eL; 0xae17533239e499a1L; 0xecb8ad4703b360a1L; 0xfde6dc7fe2ec5e64L;
        0xc50da53101795238L; 0xb82154855a65ddb2L; 0xd99a2743ebe60087L; 0xc2e96e726e97647eL ] );
    ( "copy of seed 1 after 2 draws",
      (fun () ->
        let g = Prng.create 1 in
        ignore (Prng.bits64 g);
        ignore (Prng.bits64 g);
        Prng.copy g),
      [ 0x92f89756082a4514L; 0x642e1c7bc266a3a7L; 0xb27a48e29a233673L; 0x24c123126ffda722L;
        0x123004ef8df510e6L; 0x61954dcc47b1e89dL; 0xddfdb48ab9ed4a21L; 0x8d3cdb8c3aa5b1d0L ] );
  ]

let test_pinned_stream () =
  List.iter
    (fun (name, make, expected) ->
      let g = make () in
      Alcotest.(check (list int64)) name expected (List.map (fun _ -> Prng.bits64 g) expected))
    pinned

(* Minor words [draw] allocates over 10,000 calls.  [Gc.minor_words] is
   read unboxed, so the probe itself allocates nothing. *)
let words_per_10k draw =
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    draw ()
  done;
  Gc.minor_words () -. before

(* A draw allocates nothing of its own: the state is never boxed.  A
   draw returning an [int64] or a [float] to another module still boxes
   that result, unless the call is inlined (dune's dev profile compiles
   with [-opaque], which forbids it), so those draws are held to their
   result's box: 3 words for an [int64], 2 for a [float]. *)
let test_draws_allocate_nothing () =
  let g = Prng.create 3 in
  let sink = ref 0 in
  let check name ~box draw =
    let words = words_per_10k draw in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f words over 10,000 draws, at most %d" name words (box * 10_000))
      true
      (words <= float_of_int (box * 10_000))
  in
  check "int" ~box:0 (fun () -> sink := !sink + Prng.int g 1000);
  check "bool" ~box:0 (fun () -> if Prng.bool g then incr sink);
  check "int_in_range" ~box:0 (fun () -> sink := !sink + Prng.int_in_range g ~lo:3 ~hi:9);
  check "bits64" ~box:3 (fun () -> sink := !sink + Int64.to_int (Prng.bits64 g));
  check "unit_float" ~box:2 (fun () -> if Prng.unit_float g < 0.5 then incr sink);
  check "float" ~box:2 (fun () -> if Prng.float g 4.0 < 2.0 then incr sink);
  Alcotest.(check bool) "draws were used" true (!sink > 0)

let test_split_differs () =
  let a = Prng.create 13 in
  let child = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 32 do
    if Prng.bits64 a = Prng.bits64 child then incr same
  done;
  Alcotest.(check bool) "split stream does not mirror parent" true (!same < 4)

let test_int_range () =
  let g = Prng.create 5 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_int_covers_all_values () =
  let g = Prng.create 6 in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    seen.(Prng.int g 10) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_int_invalid () =
  let g = Prng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_int_in_range () =
  let g = Prng.create 8 in
  for _ = 1 to 1000 do
    let v = Prng.int_in_range g ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Prng.int_in_range g ~lo:3 ~hi:3)

let test_unit_float_range () =
  let g = Prng.create 9 in
  for _ = 1 to 10_000 do
    let v = Prng.unit_float g in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_uniform_mean () =
  let g = Prng.create 10 in
  let acc = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    acc := !acc +. Prng.unit_float g
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_exponential_mean () =
  let g = Prng.create 11 in
  let acc = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Prng.exponential g ~mean:3.0 in
    Alcotest.(check bool) "non-negative" true (v >= 0.0);
    acc := !acc +. v
  done;
  Alcotest.(check bool) "mean near 3" true (abs_float ((!acc /. float_of_int n) -. 3.0) < 0.1)

let test_exp_draw_mean () =
  (* exp_draw is the rate parameterization: mean must be 1/rate. *)
  let g = Prng.create 23 in
  let acc = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Prng.exp_draw g ~rate:4.0 in
    Alcotest.(check bool) "non-negative" true (v >= 0.0);
    acc := !acc +. v
  done;
  Alcotest.(check bool) "mean near 0.25" true
    (abs_float ((!acc /. float_of_int n) -. 0.25) < 0.01);
  Alcotest.check_raises "rate 0" (Invalid_argument "Prng.exp_draw: rate must be positive")
    (fun () -> ignore (Prng.exp_draw g ~rate:0.0))

let test_next_arrival_homogeneous () =
  (* Thinning against a constant intensity is a plain Poisson process:
     gaps average 1/rate and the count over a horizon averages rate * T. *)
  let g = Prng.create 24 in
  let rate = 2.0 in
  let count = ref 0 and t = ref 0.0 and last = ref 0.0 in
  while !t < 5_000.0 do
    let next = Prng.next_arrival g ~now:!t ~rate_max:rate ~rate_at:(fun _ -> rate) in
    Alcotest.(check bool) "strictly increasing" true (next > !last);
    last := next;
    t := next;
    if next < 5_000.0 then incr count
  done;
  (* Expected 10_000 events; 5 sigma is 500. *)
  Alcotest.(check bool) "count near rate * T" true (abs (!count - 10_000) < 500)

let test_next_arrival_inhomogeneous () =
  (* Intensity 0 before t=100, then 1.0: thinning must never place an
     arrival inside the dead zone, and the live-zone count must match. *)
  let g = Prng.create 25 in
  let rate_at t = if t < 100.0 then 0.0 else 1.0 in
  let count = ref 0 and t = ref 0.0 in
  while !t < 1_100.0 do
    let next = Prng.next_arrival g ~now:!t ~rate_max:1.0 ~rate_at in
    Alcotest.(check bool) "after the dead zone" true (next >= 100.0);
    t := next;
    if next < 1_100.0 then incr count
  done;
  (* Expected 1000 over the live kilosecond; 5 sigma is ~160. *)
  Alcotest.(check bool) "live-zone count" true (abs (!count - 1000) < 160);
  Alcotest.check_raises "envelope must be positive"
    (Invalid_argument "Prng.next_arrival: rate_max must be positive") (fun () ->
      ignore (Prng.next_arrival g ~now:0.0 ~rate_max:0.0 ~rate_at:(fun _ -> 1.0)))

let test_next_arrival_clamps_overshoot () =
  (* rate_at above the envelope is clamped to rate_max, so the draw is a
     valid (homogeneous) process instead of a biased one. *)
  let g = Prng.create 26 in
  let count = ref 0 and t = ref 0.0 in
  while !t < 10_000.0 do
    let next = Prng.next_arrival g ~now:!t ~rate_max:1.0 ~rate_at:(fun _ -> 50.0) in
    t := next;
    if next < 10_000.0 then incr count
  done;
  Alcotest.(check bool) "clamped to the envelope rate" true (abs (!count - 10_000) < 500)

let test_pareto_min () =
  let g = Prng.create 12 in
  for _ = 1 to 5000 do
    Alcotest.(check bool) ">= x_min" true (Prng.pareto g ~alpha:2.0 ~x_min:1.5 >= 1.5)
  done

let test_pareto_mean () =
  (* alpha = 3, x_min = 1: mean = alpha * x_min / (alpha - 1) = 1.5 *)
  let g = Prng.create 13 in
  let acc = ref 0.0 in
  let n = 200_000 in
  for _ = 1 to n do
    acc := !acc +. Prng.pareto g ~alpha:3.0 ~x_min:1.0
  done;
  Alcotest.(check bool) "mean near 1.5" true (abs_float ((!acc /. float_of_int n) -. 1.5) < 0.05)

let test_normal_moments () =
  let g = Prng.create 14 in
  let stats = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add stats (Prng.normal g ~mu:2.0 ~sigma:0.5)
  done;
  Alcotest.(check bool) "mean near 2" true (abs_float (Stats.mean stats -. 2.0) < 0.02);
  Alcotest.(check bool) "stddev near 0.5" true (abs_float (Stats.stddev stats -. 0.5) < 0.02)

let test_geometric () =
  let g = Prng.create 15 in
  Alcotest.(check int) "p=1 is always 0" 0 (Prng.geometric g ~p:1.0);
  let acc = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Prng.geometric g ~p:0.25 in
    Alcotest.(check bool) "non-negative" true (v >= 0);
    acc := !acc + v
  done;
  (* mean = (1-p)/p = 3 *)
  let mean = float_of_int !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.0) < 0.1)

let test_zipf_bounds () =
  let g = Prng.create 16 in
  for _ = 1 to 5000 do
    let v = Prng.zipf g ~n:50 ~s:1.2 in
    Alcotest.(check bool) "in [1,50]" true (v >= 1 && v <= 50)
  done;
  Alcotest.(check int) "n=1 forced" 1 (Prng.zipf g ~n:1 ~s:2.0)

let test_zipf_rank1_most_frequent () =
  let g = Prng.create 17 in
  let counts = Array.make 21 0 in
  for _ = 1 to 20_000 do
    let v = Prng.zipf g ~n:20 ~s:1.0 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 1 beats rank 2" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank 2 beats rank 10" true (counts.(2) > counts.(10))

let test_zipf_harmonic_vs_general () =
  (* s exactly 1 uses the harmonic branch; s = 1 + eps the general one.
     Their rank-1 frequencies should be close. *)
  let freq s =
    let g = Prng.create 18 in
    let hits = ref 0 in
    for _ = 1 to 20_000 do
      if Prng.zipf g ~n:30 ~s = 1 then incr hits
    done;
    float_of_int !hits /. 20_000.0
  in
  Alcotest.(check bool) "branches agree" true (abs_float (freq 1.0 -. freq 1.0001) < 0.03)

let test_shuffle_permutation () =
  let g = Prng.create 19 in
  let a = Array.init 100 (fun i -> i) in
  Prng.shuffle_in_place g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 100 (fun i -> i)) sorted

let test_choose () =
  let g = Prng.create 20 in
  for _ = 1 to 100 do
    let v = Prng.choose g [| 5; 6; 7 |] in
    Alcotest.(check bool) "member" true (List.mem v [ 5; 6; 7 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty array") (fun () ->
      ignore (Prng.choose g [||]))

let test_sample_without_replacement () =
  let g = Prng.create 21 in
  (* Dense and sparse regimes. *)
  List.iter
    (fun (k, n) ->
      let s = Prng.sample_without_replacement g ~k ~n in
      Alcotest.(check int) "size" k (Array.length s);
      let seen = Hashtbl.create k in
      Array.iter
        (fun v ->
          Alcotest.(check bool) "in range" true (v >= 0 && v < n);
          Alcotest.(check bool) "distinct" false (Hashtbl.mem seen v);
          Hashtbl.add seen v ())
        s)
    [ (10, 12); (5, 1000); (0, 5); (7, 7) ]

let test_sample_uniformity () =
  let g = Prng.create 22 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    Array.iter (fun v -> counts.(v) <- counts.(v) + 1) (Prng.sample_without_replacement g ~k:3 ~n:10)
  done;
  (* Each element expected 3000 times. *)
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (abs (c - 3000) < 300))
    counts

let qcheck_int_bounds =
  QCheck.Test.make ~name:"prng int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let qcheck_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement distinct" ~count:200
    QCheck.(triple small_int (int_range 0 50) (int_range 0 100))
    (fun (seed, k, extra) ->
      let n = k + extra in
      QCheck.assume (n > 0);
      let g = Prng.create seed in
      let s = Prng.sample_without_replacement g ~k ~n in
      let uniq = List.sort_uniq compare (Array.to_list s) in
      List.length uniq = k)

let suite =
  let q t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t in
  ( "prng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
      Alcotest.test_case "copy" `Quick test_copy_independent;
      Alcotest.test_case "split" `Quick test_split_differs;
      Alcotest.test_case "stream pinned" `Quick test_pinned_stream;
      Alcotest.test_case "draws allocate no state" `Quick test_draws_allocate_nothing;
      Alcotest.test_case "int range" `Quick test_int_range;
      Alcotest.test_case "int covers values" `Quick test_int_covers_all_values;
      Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
      Alcotest.test_case "int_in_range" `Quick test_int_in_range;
      Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
      Alcotest.test_case "uniform mean" `Slow test_uniform_mean;
      Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
      Alcotest.test_case "exp_draw mean" `Slow test_exp_draw_mean;
      Alcotest.test_case "next_arrival homogeneous" `Slow test_next_arrival_homogeneous;
      Alcotest.test_case "next_arrival inhomogeneous" `Slow test_next_arrival_inhomogeneous;
      Alcotest.test_case "next_arrival clamps overshoot" `Slow test_next_arrival_clamps_overshoot;
      Alcotest.test_case "pareto min" `Quick test_pareto_min;
      Alcotest.test_case "pareto mean" `Slow test_pareto_mean;
      Alcotest.test_case "normal moments" `Slow test_normal_moments;
      Alcotest.test_case "geometric" `Slow test_geometric;
      Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
      Alcotest.test_case "zipf rank order" `Slow test_zipf_rank1_most_frequent;
      Alcotest.test_case "zipf harmonic branch" `Slow test_zipf_harmonic_vs_general;
      Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "choose" `Quick test_choose;
      Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
      Alcotest.test_case "sample uniformity" `Slow test_sample_uniformity;
      q qcheck_int_bounds;
      q qcheck_sample_distinct;
    ] )
