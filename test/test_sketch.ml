(* DDSketch-style mergeable quantile sketch, the trace-level merge built
   on it, and (suite "quantile") Trace.quantile — the one quantile read
   path — on known distributions. *)

open Prelude

let alpha = Sketch.default_alpha

(* The sketch answers rank [int (q * (n - 1))]; compare against the same
   order statistic, not an interpolated percentile, so the relative-error
   bound is the one the data structure actually promises. *)
let exact_rank samples q =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  sorted.(int_of_float (q *. float_of_int (Array.length sorted - 1)))

let within_bound ~est ~exact = Float.abs (est -. exact) <= (alpha *. Float.abs exact) +. 1e-9

let test_validation () =
  Alcotest.check_raises "alpha = 0" (Invalid_argument "Sketch.create: alpha outside (0, 1)")
    (fun () -> ignore (Sketch.create ~alpha:0.0 ()));
  Alcotest.check_raises "alpha = 1" (Invalid_argument "Sketch.create: alpha outside (0, 1)")
    (fun () -> ignore (Sketch.create ~alpha:1.0 ()));
  let t = Sketch.create () in
  Sketch.add t 1.0;
  Alcotest.check_raises "q out of range" (Invalid_argument "Sketch.quantile: q outside [0, 1]")
    (fun () -> ignore (Sketch.quantile t 1.5))

let test_empty () =
  let t = Sketch.create () in
  Alcotest.(check bool) "empty" true (Sketch.is_empty t);
  Alcotest.(check int) "count" 0 (Sketch.count t);
  Alcotest.(check bool) "nan quantile" true (Float.is_nan (Sketch.quantile t 0.5))

let test_single_value () =
  let t = Sketch.create () in
  Sketch.add t 42.0;
  List.iter
    (fun q ->
      let est = Sketch.quantile t q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f: %.3f vs 42" q est)
        true
        (within_bound ~est ~exact:42.0))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_zero_and_negative () =
  let t = Sketch.create () in
  List.iter (Sketch.add t) [ 0.0; -5.0; nan; 1e-12 ];
  Sketch.add t 100.0;
  Alcotest.(check int) "all retained" 5 (Sketch.count t);
  Alcotest.(check (float 1e-9)) "low quantile collapses to zero" 0.0 (Sketch.quantile t 0.2);
  Alcotest.(check bool) "top is the real sample" true
    (within_bound ~est:(Sketch.quantile t 1.0) ~exact:100.0)

let test_relative_error_heavy_tail () =
  let rng = Prng.create 11 in
  let samples =
    Array.init 50_000 (fun _ ->
        let u = Prng.unit_float rng in
        0.1 +. (10_000.0 *. u *. u *. u *. u))
  in
  let t = Sketch.create () in
  Array.iter (Sketch.add t) samples;
  List.iter
    (fun q ->
      let exact = exact_rank samples q in
      let est = Sketch.quantile t q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.3f: %.3f vs exact %.3f" q est exact)
        true (within_bound ~est ~exact))
    [ 0.01; 0.25; 0.5; 0.9; 0.99; 0.999 ]

let test_merge_alpha_mismatch () =
  let a = Sketch.create ~alpha:0.01 () and b = Sketch.create ~alpha:0.02 () in
  Alcotest.check_raises "mismatched alpha"
    (Invalid_argument "Sketch.merge_into: relative-error bounds differ") (fun () ->
      Sketch.merge_into ~into:a b)

let test_clear () =
  let t = Sketch.create () in
  List.iter (Sketch.add t) [ 1.0; 10.0; 100.0 ];
  Sketch.clear t;
  Alcotest.(check bool) "empty after clear" true (Sketch.is_empty t);
  Alcotest.(check int) "no buckets" 0 (List.length (Sketch.buckets t))

(* Positive-ish sample lists for the properties: heavy spread, including
   the sub-trackable region routed to the zero bucket. *)
let samples_gen =
  QCheck.(list_of_size Gen.(int_range 1 400) (float_bound_inclusive 50_000.0))

let qcheck_split_merge_matches_pooled =
  QCheck.Test.make ~name:"merge of split sketches = pooled sketch" ~count:200
    QCheck.(pair samples_gen (int_range 1 5))
    (fun (samples, pieces) ->
      QCheck.assume (samples <> []);
      let pooled = Sketch.create () in
      List.iter (Sketch.add pooled) samples;
      let parts = Array.init pieces (fun _ -> Sketch.create ()) in
      List.iteri (fun i v -> Sketch.add parts.(i mod pieces) v) samples;
      let merged = Sketch.create () in
      Array.iter (fun p -> Sketch.merge_into ~into:merged p) parts;
      Sketch.count merged = Sketch.count pooled
      && List.for_all
           (fun q ->
             let a = Sketch.quantile merged q and b = Sketch.quantile pooled q in
             a = b || Float.abs (a -. b) <= 1e-9 *. Float.abs b)
           [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ])

let qcheck_merged_within_bound_of_exact =
  QCheck.Test.make ~name:"merged sketch stays within the error bound" ~count:200
    samples_gen
    (fun samples ->
      QCheck.assume (samples <> []);
      let arr = Array.of_list samples in
      let a = Sketch.create () and b = Sketch.create () in
      Array.iteri (fun i v -> Sketch.add (if i mod 2 = 0 then a else b) v) arr;
      Sketch.merge_into ~into:a b;
      List.for_all
        (fun q -> within_bound ~est:(Sketch.quantile a q) ~exact:(exact_rank arr q))
        [ 0.0; 0.5; 0.9; 0.99; 1.0 ])

(* --- Trace.merge_into: counters and stats exact, quantiles sketch-backed --- *)

let trace_of counts samples =
  let t = Simkit.Trace.create () in
  List.iter (fun (name, n) -> Simkit.Trace.add_count t name n) counts;
  List.iter (fun v -> Simkit.Trace.observe t "lat_ms" v) samples;
  t

let qcheck_trace_merge_matches_concat =
  QCheck.Test.make ~name:"Trace.merge_into agrees with concatenated samples" ~count:150
    QCheck.(pair samples_gen samples_gen)
    (fun (s1, s2) ->
      QCheck.assume (s1 <> [] && s2 <> []);
      let t1 = trace_of [ ("ops", 3) ] s1 and t2 = trace_of [ ("ops", 4) ] s2 in
      let into = Simkit.Trace.create () in
      Simkit.Trace.merge_into ~into t1;
      Simkit.Trace.merge_into ~into t2;
      let pooled = trace_of [ ("ops", 7) ] (s1 @ s2) in
      let merged_summary =
        match Simkit.Trace.summary into "lat_ms" with Some s -> s | None -> assert false
      in
      let pooled_summary =
        match Simkit.Trace.summary pooled "lat_ms" with Some s -> s | None -> assert false
      in
      let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b) in
      (* Counters add exactly; Welford count/mean pool exactly. *)
      Simkit.Trace.counter into "ops" = 7
      && merged_summary.count = pooled_summary.count
      && close merged_summary.mean pooled_summary.mean
      (* Quantile reads match the pooled stream bit-for-bit (same buckets,
         same counts). *)
      && List.for_all
           (fun q ->
             match
               ( Simkit.Trace.quantile into "lat_ms" q,
                 Simkit.Trace.quantile pooled "lat_ms" q )
             with
             | Some a, Some b -> a = b
             | _ -> false)
           [ 0.5; 0.9; 0.99 ])

let test_trace_merge_quantile_read () =
  (* The public quantile accessor answers any q on a merged stream. *)
  let t1 = trace_of [] [ 10.0; 20.0 ] and t2 = trace_of [] [ 30.0; 40.0 ] in
  let into = Simkit.Trace.create () in
  Simkit.Trace.merge_into ~into t1;
  Simkit.Trace.merge_into ~into t2;
  match Simkit.Trace.quantile into "lat_ms" 0.75 with
  | None -> Alcotest.fail "no quantile on merged stream"
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "p75 %.2f within bound of 30" v)
        true
        (within_bound ~est:v ~exact:30.0)

(* The one quantile read path: a stream answers the same any-q read before
   and after it is merged, since both come from the same buckets. *)
let qcheck_live_read_equals_merged_read =
  QCheck.Test.make ~name:"live quantile read = read after merge_into" ~count:200
    QCheck.(pair samples_gen (float_bound_inclusive 1.0))
    (fun (samples, q) ->
      QCheck.assume (samples <> []);
      let live = trace_of [] samples in
      let into = Simkit.Trace.create () in
      Simkit.Trace.merge_into ~into live;
      Simkit.Trace.quantile live "lat_ms" q = Simkit.Trace.quantile into "lat_ms" q)

let suite =
  let q t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t in
  ( "sketch",
    [
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "single value" `Quick test_single_value;
      Alcotest.test_case "zero and negative" `Quick test_zero_and_negative;
      Alcotest.test_case "relative error, heavy tail" `Quick test_relative_error_heavy_tail;
      Alcotest.test_case "merge alpha mismatch" `Quick test_merge_alpha_mismatch;
      Alcotest.test_case "clear" `Quick test_clear;
      q qcheck_split_merge_matches_pooled;
      q qcheck_merged_within_bound_of_exact;
      q qcheck_trace_merge_matches_concat;
      Alcotest.test_case "merged trace quantile read" `Quick test_trace_merge_quantile_read;
      q qcheck_live_read_equals_merged_read;
    ] )

(* --- Trace.quantile on known distributions ------------------------------ *)

let stream_quantile samples q =
  let t = trace_of [] (Array.to_list samples) in
  Option.get (Simkit.Trace.quantile t "lat_ms" q)

let check_within_bound ~q samples =
  let est = stream_quantile samples q and exact = exact_rank samples q in
  Alcotest.(check bool)
    (Printf.sprintf "q=%.2f n=%d: estimate %.3f vs exact %.3f" q (Array.length samples) est exact)
    true (within_bound ~est ~exact)

let uniform_stream seed n =
  let rng = Prng.create seed in
  Array.init n (fun _ -> Prng.float rng 100.0)

let test_quantile_validation () =
  let t = trace_of [] [ 1.0; 2.0 ] in
  List.iter
    (fun q ->
      Alcotest.check_raises
        (Printf.sprintf "q = %g" q)
        (Invalid_argument "Sketch.quantile: q outside [0, 1]")
        (fun () -> ignore (Simkit.Trace.quantile t "lat_ms" q)))
    [ -0.1; 1.1 ];
  Alcotest.(check bool) "unknown stream" true (Simkit.Trace.quantile t "nope" 0.5 = None)

let test_median_uniform () = check_within_bound ~q:0.5 (uniform_stream 1 20_000)
let test_p95_uniform () = check_within_bound ~q:0.95 (uniform_stream 2 20_000)
let test_p99_uniform () = check_within_bound ~q:0.99 (uniform_stream 3 50_000)

let test_exponential_tail () =
  (* Skewed distribution: p95 of Exp(mean 10) is -10 ln 0.05 = 29.96. *)
  let rng = Prng.create 4 in
  let samples = Array.init 50_000 (fun _ -> Prng.exponential rng ~mean:10.0) in
  check_within_bound ~q:0.95 samples;
  let est = stream_quantile samples 0.95 in
  Alcotest.(check bool) (Printf.sprintf "p95 of exp: %.2f vs 29.96" est) true
    (abs_float (est -. 29.957) < 1.5)

let test_monotone_stream () =
  (* Sorted input is adversarial for marker-based estimators; the sketch
     does not see order at all. *)
  check_within_bound ~q:0.5 (Array.init 9999 (fun i -> float_of_int (i + 1)))

let qcheck_between_extremes =
  QCheck.Test.make ~name:"estimate stays within observed range" ~count:200
    QCheck.(pair (float_bound_inclusive 1.0) (list_of_size Gen.(int_range 1 60) (float_bound_inclusive 1000.0)))
    (fun (q, samples) ->
      let est = stream_quantile (Array.of_list samples) q in
      let lo = List.fold_left min infinity samples in
      let hi = List.fold_left max neg_infinity samples in
      est >= lo && est <= hi)

let quantile_suite =
  let q t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t in
  ( "quantile",
    [
      Alcotest.test_case "validation" `Quick test_quantile_validation;
      Alcotest.test_case "median uniform" `Slow test_median_uniform;
      Alcotest.test_case "p95 uniform" `Slow test_p95_uniform;
      Alcotest.test_case "p99 uniform" `Slow test_p99_uniform;
      Alcotest.test_case "exponential tail" `Slow test_exponential_tail;
      Alcotest.test_case "monotone stream" `Quick test_monotone_stream;
      q qcheck_between_extremes;
    ] )
