(* Every workload at --scale tiny, each run a separate process whose
   result is read from the last line of its standard output. *)

module Json = Simkit.Json

let exe = "../main.exe"
let workloads = [ "join-steady"; "join-lossy"; "query-250k"; "flash-churn" ]

type run = { code : int; doc : Json.t }

let run ~workload ~seed ~trace =
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "0"; "--trace";
       string_of_int trace; "--scale"; "tiny" |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = In_channel.input_lines ic in
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> -1 in
  let last = List.nth lines (List.length lines - 1) in
  { code; doc = Json.parse_exn last }

let field name doc = Option.get (Json.member name doc)
let metric_names r = Json.keys (field "metrics" r.doc)
let value r name = Option.get (Json.to_float (field "value" (field name (field "metrics" r.doc))))
let unit r name = Option.get (Json.to_string (field "unit" (field name (field "metrics" r.doc))))

(* The metrics that depend only on the seed: allocation, simulated
   latencies, bytes, counts.  query-250k's latencies are wall-clock. *)
let deterministic workload =
  [ "alloc_words_per_op"; "client_bytes_per_op"; "wire_bytes_per_op" ]
  @ if workload = "query-250k" then [] else [ "latency_p50_ms"; "latency_p99_ms" ]

let fingerprint workload r =
  ( Json.to_float (field "attempted" r.doc),
    Json.to_float (field "failed" r.doc),
    List.map (value r) (deterministic workload) )

let check_correct r =
  Alcotest.(check int) "exit code" 0 r.code;
  Alcotest.(check (option bool)) "correct" (Some true) (Json.to_bool (field "correct" r.doc))

let catalogue section =
  let doc = Result.get_ok (Json.of_file "../../../BENCHMARK.json") in
  List.map
    (fun m ->
      ( Option.get (Json.to_string (field "name" m)),
        Option.get (Json.to_string (field "unit" m)) ))
    (Option.get (Json.to_list (field section doc)))

let untraced_case workload =
  Alcotest.test_case workload `Quick (fun () ->
      let a = run ~workload ~seed:1 ~trace:0 in
      let b = run ~workload ~seed:1 ~trace:0 in
      let c = run ~workload ~seed:2 ~trace:0 in
      List.iter check_correct [ a; b; c ];
      Alcotest.(check bool) "same seed, same deterministic metrics" true
        (fingerprint workload a = fingerprint workload b);
      Alcotest.(check bool) "another seed changes them" false
        (fingerprint workload a = fingerprint workload c);
      let names = List.map fst (catalogue "end_to_end") in
      Alcotest.(check (list string)) "end-to-end names match BENCHMARK.json" names (metric_names a);
      List.iter
        (fun (name, u) -> Alcotest.(check string) (name ^ " unit") u (unit a name))
        (catalogue "end_to_end"))

let traced_case workload =
  Alcotest.test_case workload `Quick (fun () ->
      let r = run ~workload ~seed:1 ~trace:1 in
      check_correct r;
      let names = List.map fst (catalogue "per_layer") in
      Alcotest.(check (list string)) "per-layer names match BENCHMARK.json" names (metric_names r);
      List.iter
        (fun (name, u) -> Alcotest.(check string) (name ^ " unit") u (unit r name))
        (catalogue "per_layer");
      (* Self times tile the traced window: what no span covers is at most
         5% of its wall time. *)
      let unattributed = value r "trace.unattributed_share" in
      if Float.abs unattributed > 0.05 then
        Alcotest.failf "self times cover %.1f%% of the traced wall time"
          (100.0 *. (1.0 -. unattributed)))

let () =
  Alcotest.run "bench_stack"
    [
      ("untraced", List.map untraced_case workloads);
      ("traced", List.map traced_case workloads);
    ]
