(* Runtime self-profiling: GC deltas per phase and the profiler's own
   observe-path overhead. *)

open Simkit

let find_exn p name =
  match Runtime_profile.find p name with
  | Some ph -> ph
  | None -> Alcotest.failf "phase %s not recorded" name

(* Allocate enough to show up in the minor-heap counters whatever the
   runtime's minor heap size: a few million words of short-lived boxes. *)
let allocation_burst () =
  let acc = ref [] in
  for i = 0 to 200_000 do
    acc := (float_of_int i, i) :: !acc;
    if i mod 10_000 = 0 then acc := []
  done;
  ignore (Sys.opaque_identity !acc)

let test_gc_deltas_nonzero_and_monotone () =
  let p = Runtime_profile.create () in
  Runtime_profile.phase p "burst" allocation_burst;
  let first = find_exn p "burst" in
  Alcotest.(check int) "one run" 1 first.runs;
  Alcotest.(check bool) "wall time advanced" true (first.wall_ns >= 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "minor words counted (%.0f)" first.gc.minor_words)
    true
    (first.gc.minor_words > 0.0);
  (* Re-entering the phase accumulates: counters are monotone in runs. *)
  Runtime_profile.phase p "burst" allocation_burst;
  let second = find_exn p "burst" in
  Alcotest.(check int) "two runs" 2 second.runs;
  Alcotest.(check bool) "minor words monotone" true
    (second.gc.minor_words > first.gc.minor_words);
  Alcotest.(check bool) "wall monotone" true (second.wall_ns >= first.wall_ns);
  Alcotest.(check bool) "collections monotone" true
    (second.gc.minor_collections >= first.gc.minor_collections)

(* A bracket that allocates well under a minor heap still counts every
   word: [Gc.quick_stat]'s minor count would read 0 here, since it only
   advances at a minor collection.  60,000 words in 3-word blocks, plus
   the bracket's own closure and float boxes. *)
let test_minor_words_exact () =
  let p = Runtime_profile.create () in
  Gc.minor ();
  Runtime_profile.phase p "small" (fun () ->
      let acc = ref [] in
      for i = 1 to 20_000 do
        acc := i :: !acc
      done;
      ignore (Sys.opaque_identity !acc));
  let words = (find_exn p "small").gc.minor_words in
  Alcotest.(check bool)
    (Printf.sprintf "60,000 words counted (%.0f)" words)
    true
    (words >= 60_000.0 && words <= 60_100.0)

let test_phase_passes_result_and_exceptions () =
  let p = Runtime_profile.create () in
  Alcotest.(check int) "result passed through" 7
    (Runtime_profile.phase p "calc" (fun () -> 7));
  (match Runtime_profile.phase p "boom" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  (* The failed run is still recorded: a crashing phase must not vanish
     from the profile. *)
  Alcotest.(check int) "failed run recorded" 1 (find_exn p "boom").runs;
  Alcotest.(check bool) "overhead accumulates" true (Runtime_profile.overhead_ns p >= 0.0)

let test_phase_order_and_find () =
  let p = Runtime_profile.create () in
  Runtime_profile.phase p "a" Fun.id;
  Runtime_profile.phase p "b" Fun.id;
  Runtime_profile.phase p "a" Fun.id;
  Alcotest.(check (list string)) "first-entered order" [ "a"; "b" ]
    (List.map (fun (ph : Runtime_profile.phase) -> ph.name) (Runtime_profile.phases p));
  Alcotest.(check bool) "find missing" true (Runtime_profile.find p "zzz" = None)

let test_to_json_shape () =
  let p = Runtime_profile.create () in
  Runtime_profile.phase p "build" allocation_burst;
  let json = Runtime_profile.to_json p in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub json i m = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "phases key" true (has "\"phases\"");
  Alcotest.(check bool) "build phase" true (has "\"build\"");
  Alcotest.(check bool) "gc delta" true (has "\"minor_words\"");
  Alcotest.(check bool) "overhead" true (has "\"overhead_ns\"")

let suite =
  ( "runtime_profile",
    [
      Alcotest.test_case "gc deltas nonzero and monotone" `Quick
        test_gc_deltas_nonzero_and_monotone;
      Alcotest.test_case "phase result and exceptions" `Quick
        test_phase_passes_result_and_exceptions;
      Alcotest.test_case "minor words exact under a minor heap" `Quick test_minor_words_exact;
      Alcotest.test_case "phase order and find" `Quick test_phase_order_and_find;
      Alcotest.test_case "to_json shape" `Quick test_to_json_shape;
    ] )
