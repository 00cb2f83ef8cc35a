(* Stats, Histogram, Table, Ascii_plot. *)

open Prelude

let feq = Alcotest.(check (float 1e-9))

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  feq "mean" 0.0 (Stats.mean s);
  feq "variance" 0.0 (Stats.variance s);
  feq "ci" 0.0 (Stats.ci95_halfwidth s);
  Alcotest.check_raises "min" (Invalid_argument "Stats.min_value: empty") (fun () ->
      ignore (Stats.min_value s))

let test_stats_known_values () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  feq "mean" 5.0 (Stats.mean s);
  (* Population variance is 4; sample variance = 32/7. *)
  feq "sample variance" (32.0 /. 7.0) (Stats.variance s);
  feq "min" 2.0 (Stats.min_value s);
  feq "max" 9.0 (Stats.max_value s);
  feq "sum" 40.0 (Stats.sum s);
  (* A flat float record: adding a sample stores unboxed and allocates
     nothing (the samples are boxed up front, in the list). *)
  let samples = List.init 10_000 float_of_int in
  let add = Stats.add s in
  let before = Gc.minor_words () in
  List.iter add samples;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "10k adds allocate %.0f minor words" words) true
    (words < 100.0)

let test_stats_merge_matches_concat () =
  let xs = [ 1.0; 2.0; 3.5 ] and ys = [ -4.0; 0.5; 2.5; 6.0 ] in
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add whole) (xs @ ys);
  let merged = Stats.merge a b in
  Alcotest.(check int) "count" (Stats.count whole) (Stats.count merged);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean whole) (Stats.mean merged);
  Alcotest.(check (float 1e-9)) "variance" (Stats.variance whole) (Stats.variance merged);
  feq "min" (Stats.min_value whole) (Stats.min_value merged);
  feq "max" (Stats.max_value whole) (Stats.max_value merged)

let test_stats_merge_with_empty () =
  let a = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  let e = Stats.create () in
  let m = Stats.merge a e in
  Alcotest.(check int) "count" 2 (Stats.count m);
  feq "mean" 1.5 (Stats.mean m)

let qcheck_merge =
  QCheck.Test.make ~name:"stats merge = concat" ~count:200
    QCheck.(pair (list (float_bound_inclusive 100.0)) (list (float_bound_inclusive 100.0)))
    (fun (xs, ys) ->
      let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
      List.iter (Stats.add a) xs;
      List.iter (Stats.add b) ys;
      List.iter (Stats.add whole) (xs @ ys);
      let m = Stats.merge a b in
      Stats.count m = Stats.count whole
      && abs_float (Stats.mean m -. Stats.mean whole) < 1e-6
      && abs_float (Stats.variance m -. Stats.variance whole) < 1e-6)

let test_percentile () =
  let xs = [| 15.0; 20.0; 35.0; 40.0; 50.0 |] in
  feq "p0 = min" 15.0 (Stats.percentile xs 0.0);
  feq "p100 = max" 50.0 (Stats.percentile xs 100.0);
  feq "median" 35.0 (Stats.median xs);
  feq "p25 interpolates" 20.0 (Stats.percentile xs 25.0);
  feq "single" 7.0 (Stats.percentile [| 7.0 |] 50.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "bad p" (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile xs 101.0))

let test_percentile_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.median xs);
  Alcotest.(check (array (float 0.0))) "input intact" [| 3.0; 1.0; 2.0 |] xs

let test_mean_of () =
  feq "empty" 0.0 (Stats.mean_of [||]);
  feq "values" 2.0 (Stats.mean_of [| 1.0; 2.0; 3.0 |])

(* --- Histogram --- *)

let test_histogram_basic () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty total" 0 (Histogram.total h);
  Alcotest.(check int) "empty max" (-1) (Histogram.max_observed h);
  List.iter (Histogram.add h) [ 1; 1; 2; 5 ];
  Histogram.add_many h 2 3;
  Alcotest.(check int) "count 1" 2 (Histogram.count h 1);
  Alcotest.(check int) "count 2" 4 (Histogram.count h 2);
  Alcotest.(check int) "count unseen" 0 (Histogram.count h 3);
  Alcotest.(check int) "total" 7 (Histogram.total h);
  Alcotest.(check int) "max" 5 (Histogram.max_observed h);
  feq "mean" ((2.0 +. 8.0 +. 5.0) /. 7.0) (Histogram.mean h);
  feq "fraction" (2.0 /. 7.0) (Histogram.fraction_at h 1)

let test_histogram_assoc_ccdf () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0; 0; 1; 3 ];
  Alcotest.(check (list (pair int int))) "assoc" [ (0, 2); (1, 1); (3, 1) ] (Histogram.to_assoc h);
  let ccdf = Histogram.ccdf h in
  Alcotest.(check int) "ccdf length" 3 (List.length ccdf);
  (match ccdf with
  | (v0, p0) :: _ ->
      Alcotest.(check int) "first value" 0 v0;
      feq "P(X >= 0) = 1" 1.0 p0
  | [] -> Alcotest.fail "empty ccdf");
  (match List.rev ccdf with
  | (v_last, p_last) :: _ ->
      Alcotest.(check int) "last value" 3 v_last;
      feq "P(X >= 3)" 0.25 p_last
  | [] -> Alcotest.fail "empty ccdf")

let test_histogram_ccdf_monotone () =
  let h = Histogram.create () in
  let g = Prng.create 4 in
  for _ = 1 to 1000 do
    Histogram.add h (Prng.int g 30)
  done;
  let rec check_desc = function
    | (_, p1) :: ((_, p2) :: _ as rest) ->
        Alcotest.(check bool) "non-increasing" true (p1 >= p2);
        check_desc rest
    | _ -> ()
  in
  check_desc (Histogram.ccdf h)

let test_histogram_log2_buckets () =
  Alcotest.(check int) "nan" 0 (Histogram.log2_bucket Float.nan);
  Alcotest.(check int) "below one" 0 (Histogram.log2_bucket 0.5);
  Alcotest.(check int) "exactly one" 0 (Histogram.log2_bucket 1.0);
  Alcotest.(check int) "two closes bucket 1" 1 (Histogram.log2_bucket 2.0);
  Alcotest.(check int) "just past two" 2 (Histogram.log2_bucket 2.1);
  Alcotest.(check int) "power of two upper edge" 10 (Histogram.log2_bucket 1024.0);
  let h = Histogram.create () in
  Histogram.add_log2 h 3.0;
  Alcotest.(check int) "sample lands in its bucket" 1 (Histogram.count h 2)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1; 2; 2 ];
  List.iter (Histogram.add b) [ 2; 7 ];
  Histogram.merge_into ~into:a b;
  Alcotest.(check int) "overlapping bucket sums" 3 (Histogram.count a 2);
  Alcotest.(check int) "new bucket carried over" 1 (Histogram.count a 7);
  Alcotest.(check int) "total" 5 (Histogram.total a);
  Alcotest.(check int) "source untouched" 2 (Histogram.total b);
  Histogram.clear a;
  Alcotest.(check int) "clear drops counts" 0 (Histogram.total a);
  Alcotest.(check int) "clear drops max" (-1) (Histogram.max_observed a)

let test_histogram_merge_matches_concat () =
  (* Merging per-shard histograms must equal histogramming the
     concatenated samples - the property the per-backend metric merge
     relies on. *)
  let g = Prng.create 11 in
  let xs = List.init 200 (fun _ -> Prng.int g 50) in
  let ys = List.init 120 (fun _ -> Prng.int g 50) in
  let ha = Histogram.create () and hb = Histogram.create () and hall = Histogram.create () in
  List.iter (Histogram.add ha) xs;
  List.iter (Histogram.add hb) ys;
  List.iter (Histogram.add hall) (xs @ ys);
  Histogram.merge_into ~into:ha hb;
  Alcotest.(check (list (pair int int))) "same distribution"
    (Histogram.to_assoc hall) (Histogram.to_assoc ha)

let test_histogram_negative () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Histogram.add: negative value") (fun () ->
      Histogram.add h (-1))

(* --- Table --- *)

let test_table_render () =
  let out = Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ] in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: rule :: row1 :: _ ->
      Alcotest.(check bool) "header padded" true (String.length header = String.length rule);
      Alcotest.(check bool) "row aligned" true (String.length row1 = String.length header)
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check bool) "contains a" true (String.length out > 0)

let test_table_short_rows () =
  let out = Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_to_csv () =
  let csv = Table.to_csv ~header:[ "a"; "b" ] [ [ "1"; "x,y" ]; [ "he said \"hi\""; "plain" ] ] in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header" "a,b" (List.nth lines 0);
  Alcotest.(check string) "comma quoted" "1,\"x,y\"" (List.nth lines 1);
  Alcotest.(check string) "quotes doubled" "\"he said \"\"hi\"\"\",plain" (List.nth lines 2);
  Alcotest.(check bool) "ends with newline" true (csv.[String.length csv - 1] = '\n')

let test_csv_sink () =
  let dir = Filename.temp_file "csv_sink" "" in
  Sys.remove dir;
  Table.set_csv_sink (Some dir);
  Table.print ~header:[ "col one"; "col two" ] [ [ "1"; "2" ] ];
  Table.print ~header:[ "other" ] [ [ "3" ] ];
  Table.set_csv_sink None;
  let files = Sys.readdir dir in
  Array.sort compare files;
  Alcotest.(check int) "two captures" 2 (Array.length files);
  Alcotest.(check bool) "numbered" true
    (String.length files.(0) > 4 && String.sub files.(0) 0 4 = "001_");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Sys.rmdir dir

let test_float_cell () =
  Alcotest.(check string) "default decimals" "1.234" (Table.float_cell 1.2344);
  Alcotest.(check string) "one decimal" "1.2" (Table.float_cell ~decimals:1 1.2345)

(* --- Ascii_plot --- *)

let test_plot_empty () =
  Alcotest.(check string) "no points" "" (Ascii_plot.render [ { Ascii_plot.label = "x"; points = [] } ])

let test_plot_contains_glyphs () =
  let out =
    Ascii_plot.render
      [
        { Ascii_plot.label = "up"; points = [ (0.0, 0.0); (1.0, 1.0) ] };
        { Ascii_plot.label = "down"; points = [ (0.0, 1.0); (1.0, 0.0) ] };
      ]
  in
  Alcotest.(check bool) "glyph 1" true (String.contains out '*');
  Alcotest.(check bool) "glyph 2" true (String.contains out '+');
  Alcotest.(check bool) "legend mentions labels" true (String.length out > 0)

let suite =
  let q t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t in
  ( "stats",
    [
      Alcotest.test_case "stats empty" `Quick test_stats_empty;
      Alcotest.test_case "stats known values" `Quick test_stats_known_values;
      Alcotest.test_case "stats merge" `Quick test_stats_merge_matches_concat;
      Alcotest.test_case "stats merge empty" `Quick test_stats_merge_with_empty;
      q qcheck_merge;
      Alcotest.test_case "percentile" `Quick test_percentile;
      Alcotest.test_case "percentile pure" `Quick test_percentile_does_not_mutate;
      Alcotest.test_case "mean_of" `Quick test_mean_of;
      Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
      Alcotest.test_case "histogram assoc/ccdf" `Quick test_histogram_assoc_ccdf;
      Alcotest.test_case "histogram ccdf monotone" `Quick test_histogram_ccdf_monotone;
      Alcotest.test_case "histogram log2 buckets" `Quick test_histogram_log2_buckets;
      Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
      Alcotest.test_case "histogram merge = concat" `Quick test_histogram_merge_matches_concat;
      Alcotest.test_case "histogram negative" `Quick test_histogram_negative;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table short rows" `Quick test_table_short_rows;
      Alcotest.test_case "float cell" `Quick test_float_cell;
      Alcotest.test_case "to_csv" `Quick test_to_csv;
      Alcotest.test_case "csv sink" `Quick test_csv_sink;
      Alcotest.test_case "plot empty" `Quick test_plot_empty;
      Alcotest.test_case "plot glyphs" `Quick test_plot_contains_glyphs;
    ] )
