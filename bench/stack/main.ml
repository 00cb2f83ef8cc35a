(* bench/stack: wall-clock cost of joins and queries through every layer.

   dune exec bench/stack/main.exe -- --workload W --seed S --seconds N --trace 0|1

   Prints every metric as "name value unit", one line per output check,
   and last a JSON object {correct, attempted, failed, metrics}.  Exits 1
   when an output check fails.  See bench/stack/README.md. *)

open Stack_bench

let workloads =
  [
    ("join-steady", Join.run ~lossy:false);
    ("join-lossy", Join.run ~lossy:true);
    ("query-250k", Query.run);
    ("flash-churn", Flash.run);
  ]

let main workload seed seconds trace scale trace_file =
  let traced = trace = 1 in
  let opts =
    { Common.seed; seconds; traced; scale; trace_file = (if traced then trace_file else None) }
  in
  let result = (List.assoc workload workloads) opts in
  let correct = Report.print ~workload ~opts result in
  Option.iter Prof.write_jsonl opts.trace_file;
  if not correct then exit 1

open Cmdliner

let workload =
  Arg.(required & opt (some (enum (List.map (fun (n, _) -> (n, n)) workloads))) None
       & info [ "workload" ] ~docv:"NAME"
           ~doc:"join-steady, join-lossy, query-250k or flash-churn.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed every input is generated from.")

let seconds =
  Arg.(value & opt float 10.0
       & info [ "seconds" ] ~doc:"Length of the measurement window; at least one pass runs.")

let trace =
  Arg.(value & opt (enum [ ("0", 0); ("1", 1) ]) 0
       & info [ "trace" ] ~docv:"0|1"
           ~doc:"1: report the per-layer metrics of a traced run instead of the end-to-end ones.")

let scale =
  Arg.(value & opt (enum [ ("full", Common.Full); ("tiny", Common.Tiny) ]) Common.Full
       & info [ "scale" ] ~doc:"full, or tiny for the test suite.")

let trace_file =
  Arg.(value & opt (some string) None
       & info [ "trace-file" ] ~docv:"FILE"
           ~doc:"With --trace 1, also write every span as Chrome trace JSONL to $(docv).")

let () =
  let term = Term.(const main $ workload $ seed $ seconds $ trace $ scale $ trace_file) in
  exit (Cmd.eval (Cmd.v (Cmd.info "stack" ~doc:"Full-stack wall-clock benchmark") term))
