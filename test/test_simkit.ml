(* Engine, Transport, Churn, Trace. *)

open Simkit

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "schedule order preserved" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "a" :: !log;
      Engine.schedule e ~delay:0.5 (fun () -> log := "c" :: !log);
      Engine.schedule e ~delay:0.0 (fun () -> log := "b" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "processed" 3 (Engine.processed e)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Engine.schedule e ~delay:10.0 (fun () -> incr fired);
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "only the early event" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock advanced to the limit" 5.0 (Engine.now e);
  Alcotest.(check int) "one still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "resumes" 2 !fired

let test_engine_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "step on empty" false (Engine.step e);
  Engine.schedule e ~delay:1.0 (fun () -> ());
  Alcotest.(check bool) "step executes" true (Engine.step e);
  Alcotest.(check bool) "then empty" false (Engine.step e)

let test_engine_errors () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()));
  Engine.schedule e ~delay:5.0 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time is in the past")
    (fun () -> Engine.schedule_at e ~time:1.0 (fun () -> ()))

let drawing_transport () =
  let d = Eval.Paper_drawing.build () in
  let oracle = Traceroute.Route_oracle.create d.graph in
  let e = Engine.create () in
  (d, Transport.create e oracle)

let test_transport_delay () =
  let d, t = drawing_transport () in
  let e = Transport.engine t in
  Alcotest.(check (float 1e-9)) "one-way = hops" 5.0 (Transport.one_way_delay t ~src:d.p1 ~dst:d.lmk);
  let arrived = ref (-1.0) in
  Transport.send ~kind:"other" ~dir:"oneway"
    t ~src:d.p1 ~dst:d.lmk ~size_bytes:100 (fun () -> arrived := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "delivered after delay" 5.0 !arrived;
  Alcotest.(check int) "counted" 1 (Transport.messages_sent t);
  Alcotest.(check int) "bytes" 100 (Transport.bytes_sent t)

(* A request/reply over the transport: one Rpc attempt. *)
let rpc t ~src ~dst ~request_bytes ~reply_bytes on_reply =
  let config = { Rpc.default_config with max_attempts = 1 } in
  Rpc.call (Rpc.create ~config t) ~src
    ~dst:(fun ~attempt:_ -> Some dst)
    ~request_parts:[ ("other", request_bytes) ]
    ~reply_parts:(fun () -> [ ("other", reply_bytes) ])
    ~handle:(fun ~dst:_ -> Some ())
    ~on_reply ~on_give_up:ignore

let test_transport_rpc () =
  let d, t = drawing_transport () in
  let e = Transport.engine t in
  let done_at = ref (-1.0) in
  rpc t ~src:d.p1 ~dst:d.lmk ~request_bytes:50 ~reply_bytes:500 (fun () ->
      done_at := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "full rtt" 10.0 !done_at;
  Alcotest.(check int) "two messages" 2 (Transport.messages_sent t);
  Alcotest.(check int) "both payloads" 550 (Transport.bytes_sent t)

let test_transport_drop_unreachable () =
  let g = Topology.Graph.of_edges ~node_count:3 [ (0, 1) ] in
  let oracle = Traceroute.Route_oracle.create g in
  let e = Engine.create () in
  let t = Transport.create e oracle in
  let delivered = ref false in
  Transport.send ~kind:"other" ~dir:"oneway"
    t ~src:0 ~dst:2 ~size_bytes:10 (fun () -> delivered := true);
  Engine.run e;
  Alcotest.(check bool) "not delivered" false !delivered;
  Alcotest.(check int) "dropped" 1 (Transport.messages_dropped t)

let test_transport_loss_injection () =
  let d = Eval.Paper_drawing.build () in
  let oracle = Traceroute.Route_oracle.create d.graph in
  let e = Engine.create () in
  let rng = Prelude.Prng.create 11 in
  let t = Transport.create ~rng ~loss_prob:0.5 e oracle in
  let delivered = ref 0 in
  for _ = 1 to 200 do
    Transport.send ~kind:"other" ~dir:"oneway"
      t ~src:d.p1 ~dst:d.p2 ~size_bytes:10 (fun () -> incr delivered)
  done;
  Engine.run e;
  Alcotest.(check int) "delivered + dropped = sent" 200 (!delivered + Transport.messages_dropped t);
  Alcotest.(check bool)
    (Printf.sprintf "roughly half lost (%d delivered)" !delivered)
    true
    (!delivered > 60 && !delivered < 140);
  Alcotest.check_raises "loss without rng" (Invalid_argument "Transport.create: loss_prob needs ~rng")
    (fun () -> ignore (Transport.create ~loss_prob:0.1 e oracle))

let test_transport_drop_buckets () =
  (* The three drop mechanisms are counted separately and sum to the
     back-compat total. *)
  let g = Topology.Graph.of_edges ~node_count:5 [ (0, 1); (1, 2); (2, 3) ] in
  let oracle = Traceroute.Route_oracle.create g in
  let e = Engine.create () in
  let rng = Prelude.Prng.create 3 in
  let t = Transport.create ~rng e oracle in
  let stat name = List.assoc name (Transport.stats t) in
  (* Unreachable: node 4 is isolated. *)
  Transport.send ~kind:"other" ~dir:"oneway" t ~src:0 ~dst:4 ~size_bytes:10 (fun () -> ());
  (* Partition: cut {0, 1} off; a cross-boundary message dies, an
     intra-side one survives. *)
  Transport.set_partition_nodes t [ 0; 1 ];
  let intra = ref false in
  Transport.send ~kind:"other" ~dir:"oneway"
    t ~src:0 ~dst:1 ~size_bytes:10 (fun () -> intra := true);
  Transport.send ~kind:"other" ~dir:"oneway" t ~src:1 ~dst:2 ~size_bytes:10 (fun () -> ());
  Engine.run e;
  Alcotest.(check bool) "intra-side delivered" true !intra;
  Transport.clear_partition t;
  let healed = ref false in
  Transport.send ~kind:"other" ~dir:"oneway"
    t ~src:1 ~dst:2 ~size_bytes:10 (fun () -> healed := true);
  Engine.run e;
  Alcotest.(check bool) "healed partition delivers" true !healed;
  (* Loss: certain-loss probability drops everything into its own bucket. *)
  Transport.set_loss_prob t 0.999;
  let lost = ref 0 in
  for _ = 1 to 50 do
    Transport.send ~kind:"other" ~dir:"oneway" t ~src:0 ~dst:1 ~size_bytes:10 (fun () -> ())
  done;
  Engine.run e;
  lost := stat "dropped_loss";
  Alcotest.(check int) "one unreachable drop" 1 (stat "dropped_unreachable");
  Alcotest.(check int) "one partition drop" 1 (stat "dropped_partition");
  Alcotest.(check bool) (Printf.sprintf "loss drops counted (%d)" !lost) true (!lost >= 45);
  Alcotest.(check int) "total = sum of buckets" (!lost + 2) (Transport.messages_dropped t);
  Alcotest.check_raises "set_loss_prob range"
    (Invalid_argument "Transport.set_loss_prob: loss_prob outside [0, 1)") (fun () ->
      Transport.set_loss_prob t 1.0)

let test_transport_set_loss_needs_rng () =
  let g = Topology.Graph.of_edges ~node_count:2 [ (0, 1) ] in
  let oracle = Traceroute.Route_oracle.create g in
  let t = Transport.create (Engine.create ()) oracle in
  Alcotest.check_raises "set_loss_prob without rng"
    (Invalid_argument "Transport.set_loss_prob: loss_prob needs ~rng") (fun () ->
      Transport.set_loss_prob t 0.5)

let test_transport_rpc_loss_independent_per_leg () =
  (* Loss is drawn once per leg: at p = 0.5 an rpc completes with
     probability (1-p)^2 = 0.25, not 1-p = 0.5. *)
  let d = Eval.Paper_drawing.build () in
  let oracle = Traceroute.Route_oracle.create d.graph in
  let e = Engine.create () in
  let rng = Prelude.Prng.create 17 in
  let t = Transport.create ~rng ~loss_prob:0.5 e oracle in
  let completed = ref 0 in
  let n = 400 in
  for _ = 1 to n do
    rpc t ~src:d.p1 ~dst:d.p2 ~request_bytes:10 ~reply_bytes:10 (fun () -> incr completed)
  done;
  Engine.run e;
  (* Binomial(400, 0.25): mean 100, stddev ~8.7; +-5 sigma. *)
  Alcotest.(check bool)
    (Printf.sprintf "~quarter complete (%d/400)" !completed)
    true
    (!completed > 57 && !completed < 143)

let spec_exponential =
  {
    Churn.arrival_rate_per_s = 5.0;
    session = Churn.Exponential { mean_ms = 30_000.0 };
    failure_fraction = 0.2;
    mobility_fraction = 0.1;
    horizon_ms = 100_000.0;
  }

let test_churn_generation () =
  let rng = Prelude.Prng.create 8 in
  let sessions = Churn.generate spec_exponential ~rng in
  Alcotest.(check bool) "some sessions" true (List.length sessions > 300);
  let rec check_sorted = function
    | (a : Churn.session) :: (b :: _ as rest) ->
        Alcotest.(check bool) "sorted by join" true (a.join_at <= b.join_at);
        check_sorted rest
    | _ -> ()
  in
  check_sorted sessions;
  List.iter
    (fun (s : Churn.session) ->
      Alcotest.(check bool) "join within horizon" true (s.join_at <= spec_exponential.horizon_ms);
      Alcotest.(check bool) "positive duration" true (Churn.session_duration s >= 0.0))
    sessions

let test_churn_arrival_rate () =
  let rng = Prelude.Prng.create 9 in
  let sessions = Churn.generate spec_exponential ~rng in
  (* Expected arrivals = rate * horizon = 5/s * 100 s = 500. *)
  let n = List.length sessions in
  Alcotest.(check bool) (Printf.sprintf "got %d arrivals, expected ~500" n) true (abs (n - 500) < 80)

let test_churn_departure_mix () =
  let rng = Prelude.Prng.create 10 in
  let sessions = Churn.generate { spec_exponential with horizon_ms = 1_000_000.0 } ~rng in
  let count p = List.length (List.filter p sessions) in
  let crashes = count (fun (s : Churn.session) -> s.departure = Churn.Crash) in
  let handovers = count (fun (s : Churn.session) -> s.departure = Churn.Handover) in
  let total = List.length sessions in
  let frac n = float_of_int n /. float_of_int total in
  Alcotest.(check bool) "crash fraction near 0.2" true (abs_float (frac crashes -. 0.2) < 0.04);
  Alcotest.(check bool) "handover fraction near 0.1" true (abs_float (frac handovers -. 0.1) < 0.04)

let test_churn_validation () =
  Alcotest.check_raises "bad fractions"
    (Invalid_argument "Churn: departure fractions must be non-negative and sum to at most 1")
    (fun () -> Churn.validate { spec_exponential with failure_fraction = 0.8; mobility_fraction = 0.5 });
  Alcotest.check_raises "bad rate" (Invalid_argument "Churn: arrival rate must be positive") (fun () ->
      Churn.validate { spec_exponential with arrival_rate_per_s = 0.0 })

let test_churn_population_estimate () =
  (* 5 arrivals/s x 30 s mean session = 150 expected live peers. *)
  Alcotest.(check (float 1e-6)) "little's law" 150.0 (Churn.expected_population spec_exponential);
  let pareto =
    { spec_exponential with session = Churn.Pareto { alpha = 2.0; min_ms = 10_000.0 } }
  in
  Alcotest.(check (float 1e-6)) "pareto mean" 100.0 (Churn.expected_population pareto);
  let heavy = { spec_exponential with session = Churn.Pareto { alpha = 0.9; min_ms = 1.0 } } in
  Alcotest.(check bool) "infinite mean" true (Churn.expected_population heavy = infinity)

let test_trace () =
  let t = Trace.create () in
  Alcotest.(check int) "zero default" 0 (Trace.counter t "x");
  Trace.incr t "x";
  Trace.incr t "x";
  Trace.add_count t "y" 5;
  Alcotest.(check int) "incr" 2 (Trace.counter t "x");
  Alcotest.(check (list (pair string int))) "sorted counters" [ ("x", 2); ("y", 5) ] (Trace.counters t);
  Trace.observe t "lat" 1.0;
  Trace.observe t "lat" 3.0;
  (match Trace.stat t "lat" with
  | Some s -> Alcotest.(check (float 1e-9)) "observed mean" 2.0 (Prelude.Stats.mean s)
  | None -> Alcotest.fail "missing stat");
  Alcotest.(check bool) "missing stat" true (Trace.stat t "nope" = None);
  Trace.reset t;
  Alcotest.(check int) "reset" 0 (Trace.counter t "x")

let qcheck_engine_total_order =
  QCheck.Test.make ~name:"engine executes every event exactly once in time order" ~count:100
    QCheck.(list (float_bound_inclusive 100.0))
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter (fun d -> Engine.schedule e ~delay:d (fun () -> fired := Engine.now e :: !fired)) delays;
      Engine.run e;
      let times = List.rev !fired in
      List.length times = List.length delays && times = List.sort compare delays)

(* A random schedule: each event fires [delay] ms after it was scheduled
   and, when it runs, schedules its children.  Delays of 0-2 ms make time
   ties common, and a child with delay 0 is a same-time event scheduled by
   a running one. *)
type ev = Ev of int * ev list

let gen_schedule =
  let open QCheck.Gen in
  let ev =
    fix (fun self depth ->
        map2
          (fun delay kids -> Ev (delay, kids))
          (int_bound 2)
          (if depth = 0 then return [] else list_size (int_bound 3) (self (depth - 1))))
  in
  list_size (int_bound 25) (ev 3)

(* The reference: every scheduled event gets the next sequence number, and
   the pending event with the least (time, seq) runs next. *)
let reference_order roots =
  let pending = ref [] and next = ref 0 and log = ref [] in
  let schedule now (Ev (delay, kids)) =
    pending := (now +. float_of_int delay, !next, kids) :: !pending;
    incr next
  in
  List.iter (schedule 0.0) roots;
  while !pending <> [] do
    let ((time, seq, kids) as first) =
      List.fold_left
        (fun ((t1, s1, _) as a) ((t2, s2, _) as b) -> if (t2, s2) < (t1, s1) then b else a)
        (List.hd !pending) !pending
    in
    pending := List.filter (fun e -> e != first) !pending;
    log := (seq, time) :: !log;
    List.iter (schedule time) kids
  done;
  List.rev !log

let qcheck_engine_time_seq_order =
  QCheck.Test.make ~name:"engine runs random schedules in (time, seq) order" ~count:300
    (QCheck.make gen_schedule)
    (fun roots ->
      let e = Engine.create () in
      let next = ref 0 and log = ref [] in
      let rec schedule (Ev (delay, kids)) =
        let seq = !next in
        incr next;
        Engine.schedule e ~delay:(float_of_int delay) (fun () ->
            log := (seq, Engine.now e) :: !log;
            List.iter schedule kids)
      in
      List.iter schedule roots;
      Engine.run e;
      List.rev !log = reference_order roots && Engine.pending e = 0)

(* An executed event's closure is not kept alive by the queue. *)
let[@inline never] schedule_with_payload e weak ~delay =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  Engine.schedule e ~delay (fun () -> ignore (Bytes.length payload))

let test_engine_releases_run_events () =
  let e = Engine.create () in
  let weak = Weak.create 1 in
  schedule_with_payload e weak ~delay:1.0;
  ignore (Engine.step e);
  Gc.full_major ();
  Alcotest.(check bool) "run closure collected" false (Weak.check weak 0);
  Alcotest.(check int) "queue drained" 0 (Engine.pending e)

let suite =
  let q t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t in
  ( "simkit",
    [
      Alcotest.test_case "engine time order" `Quick test_engine_time_order;
      Alcotest.test_case "engine FIFO ties" `Quick test_engine_fifo_same_time;
      Alcotest.test_case "engine nested" `Quick test_engine_nested_scheduling;
      Alcotest.test_case "engine until" `Quick test_engine_until;
      Alcotest.test_case "engine step" `Quick test_engine_step;
      Alcotest.test_case "engine errors" `Quick test_engine_errors;
      Alcotest.test_case "transport delay" `Quick test_transport_delay;
      Alcotest.test_case "transport rpc" `Quick test_transport_rpc;
      Alcotest.test_case "transport drop" `Quick test_transport_drop_unreachable;
      Alcotest.test_case "transport loss injection" `Quick test_transport_loss_injection;
      Alcotest.test_case "transport drop buckets" `Quick test_transport_drop_buckets;
      Alcotest.test_case "transport set-loss needs rng" `Quick test_transport_set_loss_needs_rng;
      Alcotest.test_case "transport rpc loss per leg" `Quick
        test_transport_rpc_loss_independent_per_leg;
      Alcotest.test_case "churn generation" `Quick test_churn_generation;
      Alcotest.test_case "churn arrival rate" `Quick test_churn_arrival_rate;
      Alcotest.test_case "churn departure mix" `Slow test_churn_departure_mix;
      Alcotest.test_case "churn validation" `Quick test_churn_validation;
      Alcotest.test_case "churn population" `Quick test_churn_population_estimate;
      Alcotest.test_case "trace" `Quick test_trace;
      q qcheck_engine_total_order;
      q qcheck_engine_time_seq_order;
      Alcotest.test_case "engine releases run events" `Quick test_engine_releases_run_events;
    ] )
