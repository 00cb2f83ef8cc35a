(* Admission: bounded queue semantics, queueing-delay accounting on the
   engine clock, the three shedding policies, and the emitted metrics. *)

let mk ?metrics ?timeseries ?recorder ?on_drain ~capacity ~rate ~batch policy =
  let engine = Simkit.Engine.create () in
  let t =
    Nearby.Admission.create ~engine ?metrics ?timeseries ?recorder ?on_drain
      {
        Nearby.Admission.capacity;
        service_rate_per_s = rate;
        batch;
        policy;
      }
  in
  (engine, t)

type outcome = Served of float | Shed of string

let submit_tracked t log id =
  Nearby.Admission.submit t
    ~serve:(fun ~queued_ms -> log := (id, Served queued_ms) :: !log)
    ~shed:(fun ~reason -> log := (id, Shed reason) :: !log)

let test_validate () =
  let engine = Simkit.Engine.create () in
  let rejects config =
    match Nearby.Admission.create ~engine config with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid config accepted"
  in
  rejects
    { Nearby.Admission.capacity = 0; service_rate_per_s = 1.0; batch = 1; policy = Drop_tail };
  rejects
    { Nearby.Admission.capacity = 1; service_rate_per_s = 0.0; batch = 1; policy = Drop_tail };
  rejects
    { Nearby.Admission.capacity = 1; service_rate_per_s = 1.0; batch = 0; policy = Drop_tail };
  rejects
    {
      Nearby.Admission.capacity = 1;
      service_rate_per_s = 1.0;
      batch = 1;
      policy = Deadline { max_wait_ms = 0.0 };
    }

let test_fifo_and_wait_accounting () =
  (* batch 2 at 1000/s: tick 2 ms.  Three submits at t=0 drain as 2 + 1,
     with exact submit-to-dequeue waits on the engine clock. *)
  let log = ref [] in
  let engine, t = mk ~capacity:10 ~rate:1000.0 ~batch:2 Nearby.Admission.Drop_tail in
  Alcotest.(check (float 1e-9)) "tick" 2.0 (Nearby.Admission.tick_ms t);
  Simkit.Engine.schedule engine ~delay:0.0 (fun () ->
      submit_tracked t log 0;
      submit_tracked t log 1;
      submit_tracked t log 2);
  Simkit.Engine.run engine;
  Alcotest.(check int) "drained" 0 (Nearby.Admission.depth t);
  (match List.rev !log with
  | [ (0, Served w0); (1, Served w1); (2, Served w2) ] ->
      Alcotest.(check (float 1e-9)) "first tick" 2.0 w0;
      Alcotest.(check (float 1e-9)) "same tick" 2.0 w1;
      Alcotest.(check (float 1e-9)) "second tick" 4.0 w2
  | _ -> Alcotest.fail "expected 3 serves in FIFO order");
  let totals = Nearby.Admission.totals t in
  Alcotest.(check int) "submitted" 3 totals.Nearby.Admission.submitted;
  Alcotest.(check int) "admitted" 3 totals.Nearby.Admission.admitted;
  Alcotest.(check int) "no sheds" 0 totals.Nearby.Admission.shed_total;
  Alcotest.(check int) "max depth" 3 totals.Nearby.Admission.max_depth;
  Alcotest.(check int) "two drains" 2 totals.Nearby.Admission.drains

let test_drop_tail_bounds_queue () =
  let log = ref [] in
  let engine, t = mk ~capacity:2 ~rate:1000.0 ~batch:1 Nearby.Admission.Drop_tail in
  Simkit.Engine.schedule engine ~delay:0.0 (fun () ->
      for id = 0 to 4 do
        submit_tracked t log id
      done);
  Simkit.Engine.run engine;
  let shed = List.filter (fun (_, o) -> o = Shed "queue_full") !log in
  Alcotest.(check int) "three rejected at the full queue" 3 (List.length shed);
  Alcotest.(check (list int)) "the overflow is the tail" [ 2; 3; 4 ]
    (List.rev_map fst shed);
  let totals = Nearby.Admission.totals t in
  Alcotest.(check int) "admitted the capacity" 2 totals.Nearby.Admission.admitted;
  Alcotest.(check (list (pair string int))) "shed by reason" [ ("queue_full", 3) ]
    totals.Nearby.Admission.shed

let test_deadline_expiry () =
  (* tick 10 ms, deadline 25 ms: requests 3 and 4 are already stale at
     their drain and are discarded without consuming a batch slot. *)
  let log = ref [] in
  let engine, t =
    mk ~capacity:10 ~rate:100.0 ~batch:1
      (Nearby.Admission.Deadline { max_wait_ms = 25.0 })
  in
  Simkit.Engine.schedule engine ~delay:0.0 (fun () ->
      for id = 0 to 3 do
        submit_tracked t log id
      done);
  Simkit.Engine.run engine;
  (match List.rev !log with
  | [ (0, Served w0); (1, Served w1); (2, Shed "deadline"); (3, Shed "deadline") ] ->
      Alcotest.(check (float 1e-9)) "first wait" 10.0 w0;
      Alcotest.(check (float 1e-9)) "second wait" 20.0 w1
  | _ -> Alcotest.fail "expected 2 serves then 2 deadline sheds");
  let totals = Nearby.Admission.totals t in
  Alcotest.(check (list (pair string int))) "shed by reason" [ ("deadline", 2) ]
    totals.Nearby.Admission.shed

let test_on_drain_batches () =
  let sizes = ref [] in
  let log = ref [] in
  let engine, t =
    mk ~capacity:100 ~rate:1000.0 ~batch:4
      ~on_drain:(fun ~served -> sizes := served :: !sizes)
      Nearby.Admission.Drop_tail
  in
  Simkit.Engine.schedule engine ~delay:0.0 (fun () ->
      for id = 0 to 9 do
        submit_tracked t log id
      done);
  Simkit.Engine.run engine;
  Alcotest.(check (list int)) "batch sizes" [ 4; 4; 2 ] (List.rev !sizes)

(* The SLO shedder: overload opens the shed (arrivals rejected with reason
   "slo"), the drained queue closes it again — the hysteresis loop the
   flight recorder sees as shed open / shed close. *)
let test_slo_shedder_cycle () =
  let ts = Simkit.Timeseries.create ~window_ms:100.0 () in
  let metrics = Simkit.Metrics.create () in
  let recorder = Simkit.Flight_recorder.create () in
  let log = ref [] in
  let engine, t =
    mk ~metrics ~timeseries:ts ~recorder ~capacity:1000 ~rate:100.0 ~batch:1
      (Nearby.Admission.slo_shed ~lookback:1 ~burn_threshold:1.0 ~poll_every_ms:50.0
         ~wait_p99_limit_ms:50.0 ())
  in
  (* Overload: 40 submits against a 100/s server build a 400 ms backlog. *)
  Simkit.Engine.schedule engine ~delay:0.0 (fun () ->
      for id = 0 to 39 do
        submit_tracked t log id
      done);
  (* A second wave lands while the breach is open. *)
  Simkit.Engine.schedule engine ~delay:300.0 (fun () ->
      for id = 100 to 109 do
        submit_tracked t log id
      done);
  (* Long after the drain: the shed must have closed again. *)
  let late_outcome = ref None in
  Simkit.Engine.schedule engine ~delay:2_000.0 (fun () ->
      Alcotest.(check bool) "shed closed after the drain" false (Nearby.Admission.shedding t);
      Nearby.Admission.submit t
        ~serve:(fun ~queued_ms -> late_outcome := Some (Served queued_ms))
        ~shed:(fun ~reason -> late_outcome := Some (Shed reason)));
  Simkit.Engine.run engine ~until:3_000.0;
  let slo_shed = List.filter (fun (_, o) -> o = Shed "slo") !log in
  Alcotest.(check int) "the second wave was shed" 10 (List.length slo_shed);
  Alcotest.(check bool) "second wave ids" true
    (List.for_all (fun (id, _) -> id >= 100) slo_shed);
  (match !late_outcome with
  | Some (Served _) -> ()
  | _ -> Alcotest.fail "post-clear submit must be served");
  let totals = Nearby.Admission.totals t in
  Alcotest.(check int) "one shed cycle" 1 totals.Nearby.Admission.slo_sheds_opened;
  Alcotest.(check int) "first wave fully served" 41 totals.Nearby.Admission.admitted;
  (* Transition edges land in the flight recorder under kind "admission". *)
  let admission_events =
    List.filter
      (fun (e : Simkit.Flight_recorder.event) -> e.kind = "admission")
      (Simkit.Flight_recorder.events recorder)
  in
  let details = List.map (fun (e : Simkit.Flight_recorder.event) -> e.detail) admission_events in
  let has prefix =
    List.exists
      (fun d -> String.length d >= String.length prefix && String.sub d 0 (String.length prefix) = prefix)
      details
  in
  Alcotest.(check bool) "shed open recorded" true (has "shed open:");
  Alcotest.(check bool) "shed close recorded" true (has "shed close:");
  (* And the labeled series carry the same story. *)
  Alcotest.(check int) "submitted counter" 51
    (Simkit.Metrics.counter metrics "admission_submitted_total" ~labels:[]);
  Alcotest.(check int) "slo shed counter" 10
    (Simkit.Metrics.counter metrics "admission_shed_total" ~labels:[ ("reason", "slo") ]);
  Alcotest.(check int) "breach edge counter" 1
    (Simkit.Metrics.counter metrics "admission_slo_transitions_total"
       ~labels:[ ("edge", "breach") ]);
  Alcotest.(check int) "clear edge counter" 1
    (Simkit.Metrics.counter metrics "admission_slo_transitions_total"
       ~labels:[ ("edge", "clear") ]);
  (match Simkit.Metrics.gauge metrics Nearby.Admission.depth_series_name ~labels:[] with
  | Some v -> Alcotest.(check (float 1e-9)) "depth gauge drained" 0.0 v
  | None -> Alcotest.fail "depth gauge missing");
  Alcotest.(check bool) "windowed depth series present" true
    (List.mem Nearby.Admission.depth_series_name (Simkit.Timeseries.names ts));
  Alcotest.(check bool) "windowed wait series present" true
    (List.mem Nearby.Admission.wait_series_name (Simkit.Timeseries.names ts))

let test_deterministic () =
  (* No rng anywhere: two identical runs produce identical totals. *)
  let run () =
    let log = ref [] in
    let engine, t = mk ~capacity:3 ~rate:500.0 ~batch:2 Nearby.Admission.Drop_tail in
    Simkit.Engine.schedule engine ~delay:0.0 (fun () ->
        for id = 0 to 7 do
          submit_tracked t log id
        done);
    Simkit.Engine.run engine;
    (Nearby.Admission.totals t, List.rev !log)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical outcomes" true (a = b)

(* A flash crowd through each policy: the totals are the labeled
   counters (one cell each), and a run without a registry keeps the same
   totals. *)
let test_totals_are_the_labeled_counters () =
  let flash ?metrics policy =
    let engine, t = mk ?metrics ~capacity:40 ~rate:100.0 ~batch:4 policy in
    let arrivals =
      Simkit.Workload.install ~engine ~rng:(Prelude.Prng.create 5)
        (Simkit.Workload.Flash
           { base_per_s = 50.0; spike_per_s = 400.0; spike_at_s = 1.0; spike_len_s = 2.0 })
        ~until_ms:5_000.0
        ~on_arrival:(fun _ ->
          Nearby.Admission.submit t ~serve:(fun ~queued_ms:_ -> ()) ~shed:(fun ~reason:_ -> ()))
    in
    Simkit.Engine.run engine ~until:60_000.0;
    (arrivals, Nearby.Admission.totals t)
  in
  List.iter
    (fun (name, policy) ->
      let metrics = Simkit.Metrics.create () in
      let arrivals, totals = flash ~metrics policy in
      let counter ?(labels = []) series = Simkit.Metrics.counter metrics series ~labels in
      Alcotest.(check int) (name ^ ": every arrival submitted") arrivals totals.submitted;
      Alcotest.(check bool) (name ^ ": the crowd was shed") true (totals.shed_total > 0);
      Alcotest.(check int)
        (name ^ ": submitted") totals.submitted
        (counter "admission_submitted_total");
      Alcotest.(check int)
        (name ^ ": admitted") totals.admitted
        (counter "admission_admitted_total");
      Alcotest.(check (list (pair string int)))
        (name ^ ": shed series, one per reason hit")
        totals.shed
        (List.filter_map
           (fun (series, labels, _) ->
             if series = "admission_shed_total" then
               Some (List.assoc "reason" labels, counter series ~labels)
             else None)
           (Simkit.Metrics.series metrics));
      Alcotest.(check (option int))
        (name ^ ": one wait sample per admitted") (Some totals.admitted)
        (Option.map
           (fun (s : Simkit.Trace.summary) -> s.count)
           (Simkit.Metrics.summary metrics Nearby.Admission.wait_series_name ~labels:[]));
      Alcotest.(check bool) (name ^ ": same totals without a registry") true
        (snd (flash policy) = totals))
    [
      ("drop-tail", Nearby.Admission.Drop_tail);
      ("deadline", Nearby.Admission.Deadline { max_wait_ms = 150.0 });
      ( "slo",
        Nearby.Admission.slo_shed ~lookback:2 ~burn_threshold:0.5 ~poll_every_ms:50.0
          ~wait_p99_limit_ms:100.0 () );
    ]

let suite =
  ( "admission",
    [
      Alcotest.test_case "config validation" `Quick test_validate;
      Alcotest.test_case "fifo and wait accounting" `Quick test_fifo_and_wait_accounting;
      Alcotest.test_case "drop-tail bounds the queue" `Quick test_drop_tail_bounds_queue;
      Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
      Alcotest.test_case "on_drain batches" `Quick test_on_drain_batches;
      Alcotest.test_case "slo shedder cycle" `Quick test_slo_shedder_cycle;
      Alcotest.test_case "deterministic" `Quick test_deterministic;
      Alcotest.test_case "totals are the labeled counters" `Quick
        test_totals_are_the_labeled_counters;
    ] )
