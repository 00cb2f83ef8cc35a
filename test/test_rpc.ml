(* Rpc: the retrying request/response state machine — settle-once, timeout
   and backoff schedule, per-attempt failover, guaranteed termination. *)

open Simkit

let drawing () =
  let d = Eval.Paper_drawing.build () in
  let oracle = Traceroute.Route_oracle.create d.graph in
  let transport = Transport.create (Engine.create ()) oracle in
  (d, transport)

(* Deterministic test config: 100 ms timeout, 3 attempts, 50 ms base
   backoff doubling, no jitter. *)
let config =
  {
    Rpc.timeout_ms = 100.0;
    max_attempts = 3;
    backoff_base_ms = 50.0;
    backoff_multiplier = 2.0;
    jitter_frac = 0.0;
  }

let counter rpc = Trace.counter (Rpc.trace rpc)

let test_config_validation () =
  let _, transport = drawing () in
  let bad msg config =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Rpc.create ~config transport))
  in
  bad "Rpc: timeout_ms must be positive" { config with timeout_ms = 0.0 };
  bad "Rpc: max_attempts must be at least 1" { config with max_attempts = 0 };
  bad "Rpc: backoff_base_ms must be non-negative" { config with backoff_base_ms = -1.0 };
  bad "Rpc: backoff_multiplier must be >= 1" { config with backoff_multiplier = 0.5 };
  bad "Rpc: jitter_frac outside [0, 1)" { config with jitter_frac = 1.0 }

let test_clean_call_single_attempt () =
  let d, transport = drawing () in
  let e = Transport.engine transport in
  let rpc = Rpc.create ~config transport in
  let got = ref None and done_at = ref nan in
  Rpc.call rpc ~src:d.p1
    ~dst:(fun ~attempt:_ -> Some d.lmk)
    ~request_parts:[ ("other", 50) ]
    ~reply_parts:(fun _ -> [ ("other", 500) ])
    ~handle:(fun ~dst:_ -> Some 42)
    ~on_reply:(fun v ->
      got := Some v;
      done_at := Engine.now e)
    ~on_give_up:(fun () -> Alcotest.fail "gave up on a clean call");
  Engine.run e;
  Alcotest.(check (option int)) "reply value" (Some 42) !got;
  (* p1 -> lmk is 5 hops each way: full RTT with no jitter. *)
  Alcotest.(check (float 1e-9)) "one clean RTT" 10.0 !done_at;
  Alcotest.(check int) "one attempt" 1 (counter rpc "rpc_attempts");
  Alcotest.(check int) "no retries" 0 (counter rpc "rpc_retries");
  Alcotest.(check int) "no timeouts" 0 (counter rpc "rpc_timeouts");
  Alcotest.(check int) "settled ok" 1 (counter rpc "rpc_ok")

let test_gives_up_after_max_attempts () =
  (* Target unreachable (isolated node): every attempt times out and the
     give-up lands exactly at sum(timeouts) + sum(backoffs). *)
  let g = Topology.Graph.of_edges ~node_count:3 [ (0, 1) ] in
  let oracle = Traceroute.Route_oracle.create g in
  let e = Engine.create () in
  let transport = Transport.create e oracle in
  let rpc = Rpc.create ~config transport in
  let gave_up_at = ref nan in
  Rpc.call rpc ~src:0
    ~dst:(fun ~attempt:_ -> Some 2)
    ~request_parts:[ ("other", 10) ]
    ~reply_parts:(fun _ -> [ ("other", 10) ])
    ~handle:(fun ~dst:_ -> Some ())
    ~on_reply:(fun () -> Alcotest.fail "replied through a dead link")
    ~on_give_up:(fun () -> gave_up_at := Engine.now e);
  Engine.run e;
  (* t=0 attempt 1; timeout 100, backoff 50; t=150 attempt 2; timeout 250,
     backoff 100; t=350 attempt 3; timeout and give-up at 450. *)
  Alcotest.(check (float 1e-9)) "terminates at the worst-case bound" 450.0 !gave_up_at;
  Alcotest.(check (float 1e-9)) "worst_case_ms is that bound" 450.0 (Rpc.worst_case_ms config);
  Alcotest.(check int) "all attempts used" 3 (counter rpc "rpc_attempts");
  Alcotest.(check int) "two retries" 2 (counter rpc "rpc_retries");
  Alcotest.(check int) "three timeouts" 3 (counter rpc "rpc_timeouts");
  Alcotest.(check int) "gave up once" 1 (counter rpc "rpc_gave_up");
  Alcotest.(check int) "never ok" 0 (counter rpc "rpc_ok");
  (* With jitter drawn from an rng the give-up time varies, but never
     past the bound taken at the largest jitter. *)
  let jittered = { config with jitter_frac = 0.2 } in
  let e = Engine.create () in
  let rpc =
    Rpc.create ~config:jittered ~rng:(Prelude.Prng.create 7) (Transport.create e oracle)
  in
  let gave_up_at = ref nan in
  Rpc.call rpc ~src:0
    ~dst:(fun ~attempt:_ -> Some 2)
    ~request_parts:[ ("other", 10) ]
    ~reply_parts:(fun _ -> [ ("other", 10) ])
    ~handle:(fun ~dst:_ -> Some ())
    ~on_reply:(fun () -> Alcotest.fail "replied through a dead link")
    ~on_give_up:(fun () -> gave_up_at := Engine.now e);
  Engine.run e;
  Alcotest.(check bool)
    "jittered give-up within worst_case_ms" true
    (!gave_up_at <= Rpc.worst_case_ms jittered)

let test_retry_fails_over_to_second_target () =
  (* Attempt 1 goes to an isolated replica, attempt 2 to a live one: the
     call completes and records the failover. *)
  let g = Topology.Graph.of_edges ~node_count:4 [ (0, 1); (1, 2) ] in
  let oracle = Traceroute.Route_oracle.create g in
  let e = Engine.create () in
  let transport = Transport.create e oracle in
  let rpc = Rpc.create ~config transport in
  let got = ref None and asked = ref [] in
  Rpc.call rpc ~src:0
    ~dst:(fun ~attempt -> if attempt = 1 then Some 3 else Some 2)
    ~request_parts:[ ("other", 10) ]
    ~reply_parts:(fun _ -> [ ("other", 10) ])
    ~handle:(fun ~dst ->
      asked := dst :: !asked;
      Some dst)
    ~on_reply:(fun v -> got := Some v)
    ~on_give_up:(fun () -> Alcotest.fail "gave up despite a live fallback");
  Engine.run e;
  Alcotest.(check (option int)) "served by the fallback" (Some 2) !got;
  Alcotest.(check (list int)) "only the live replica executed" [ 2 ] !asked;
  Alcotest.(check int) "two attempts" 2 (counter rpc "rpc_attempts");
  Alcotest.(check int) "one timeout" 1 (counter rpc "rpc_timeouts");
  Alcotest.(check int) "ok" 1 (counter rpc "rpc_ok")

let test_unserved_then_recovered () =
  (* The server is down when the first request arrives (handle = None) and
     back up for the retry: the first request lands at 5 ms, the retry
     (after the 20 ms deadline and a 20 ms backoff) at 45 ms. *)
  let d, transport = drawing () in
  let e = Transport.engine transport in
  let rpc = Rpc.create ~config transport in
  let up = ref false in
  Engine.schedule e ~delay:30.0 (fun () -> up := true);
  let got = ref None in
  Rpc.call rpc ~src:d.p1
    ~dst:(fun ~attempt:_ -> Some d.lmk)
    ~request_parts:[ ("other", 10) ]
    ~reply_parts:(fun _ -> [ ("other", 10) ])
    ~handle:(fun ~dst:_ -> if !up then Some () else None)
    ~on_reply:(fun v -> got := Some v)
    ~on_give_up:(fun () -> Alcotest.fail "gave up on a recovered server");
  Engine.run e;
  Alcotest.(check (option unit)) "eventually served" (Some ()) !got;
  Alcotest.(check int) "first request died unserved" 1 (counter rpc "rpc_unserved");
  Alcotest.(check int) "retried" 1 (counter rpc "rpc_retries");
  Alcotest.(check int) "ok once" 1 (counter rpc "rpc_ok")

let test_settles_once_under_duplicate_replies () =
  (* Timeout shorter than the RTT: attempt 1's reply is still in flight
     when attempt 2 starts, so two replies eventually arrive — exactly one
     on_reply, and the idempotent re-execution is visible to the server. *)
  let d, transport = drawing () in
  let e = Transport.engine transport in
  let tight = { config with timeout_ms = 6.0; backoff_base_ms = 1.0; max_attempts = 5 } in
  let rpc = Rpc.create ~config:tight transport in
  let replies = ref 0 and served = ref 0 in
  Rpc.call rpc ~src:d.p1
    ~dst:(fun ~attempt:_ -> Some d.lmk)
    ~request_parts:[ ("other", 10) ]
    ~reply_parts:(fun _ -> [ ("other", 10) ])
    ~handle:(fun ~dst:_ ->
      incr served;
      Some ())
    ~on_reply:(fun () -> incr replies)
    ~on_give_up:(fun () -> Alcotest.fail "gave up despite replies");
  Engine.run e;
  Alcotest.(check int) "exactly one on_reply" 1 !replies;
  Alcotest.(check bool)
    (Printf.sprintf "server executed the duplicate too (%d)" !served)
    true (!served >= 2);
  Alcotest.(check int) "one settled ok" 1 (counter rpc "rpc_ok")

let test_no_target_still_terminates () =
  let d, transport = drawing () in
  let e = Transport.engine transport in
  let rpc = Rpc.create ~config transport in
  let gave_up = ref false in
  Rpc.call rpc ~src:d.p1
    ~dst:(fun ~attempt:_ -> None)
    ~request_parts:[ ("other", 10) ]
    ~reply_parts:(fun _ -> [ ("other", 10) ])
    ~handle:(fun ~dst:_ -> Some ())
    ~on_reply:(fun () -> Alcotest.fail "replied with no target")
    ~on_give_up:(fun () -> gave_up := true);
  Engine.run e;
  Alcotest.(check bool) "gave up" true !gave_up;
  Alcotest.(check int) "every attempt lacked a target" 3 (counter rpc "rpc_no_target");
  Alcotest.(check int) "nothing sent" 0 (Transport.messages_sent transport)

let test_backoff_jitter_spread () =
  let d, transport = drawing () in
  let rng = Prelude.Prng.create 5 in
  let rpc = Rpc.create ~config:{ config with jitter_frac = 0.2 } ~rng transport in
  ignore d;
  let base = 50.0 in
  for _ = 1 to 50 do
    let b = Rpc.backoff_ms rpc ~attempt:1 ~deadline_ms:config.timeout_ms in
    Alcotest.(check bool)
      (Printf.sprintf "within +-20%% of base (%.1f)" b)
      true
      (b >= base *. 0.8 -. 1e-9 && b <= base *. 1.2 +. 1e-9)
  done;
  let no_jitter = Rpc.create ~config transport in
  Alcotest.(check (float 1e-9)) "deterministic without jitter" 100.0
    (Rpc.backoff_ms no_jitter ~attempt:2 ~deadline_ms:config.timeout_ms)

(* The times [dst] is asked for a target, one per attempt, and the
   give-up's, of one call from [src] that every attempt loses. *)
let attempt_times rpc ~src ~target =
  let e = Rpc.engine rpc in
  let starts = ref [] and gave_up_at = ref nan in
  Rpc.call rpc ~src
    ~dst:(fun ~attempt:_ ->
      starts := Engine.now e :: !starts;
      target)
    ~request_parts:[ ("other", 10) ]
    ~reply_parts:(fun _ -> [ ("other", 10) ])
    ~handle:(fun ~dst:_ -> Some ())
    ~on_reply:(fun () -> Alcotest.fail "replied to a lost request")
    ~on_give_up:(fun () -> gave_up_at := Engine.now e);
  Engine.run e;
  (List.rev !starts, !gave_up_at)

(* p1 -> lmk is 5 hops each way, so an attempt's deadline is 20 ms and
   each backoff is min(50, 20) * 2^(n-1): attempts at 0, 40 (20 + 20),
   100 (60 + 40) and 200 (120 + 80).  The next backoff, 160 ms, would
   pass the last start that fits the budget (450 - 100 = 350), so the
   fifth attempt starts there, and its deadline ends the call. *)
let test_backoff_from_the_deadline () =
  let d, transport = drawing () in
  let rpc = Rpc.create ~config transport in
  Transport.set_partition_nodes transport [ d.p1 ];
  let starts, gave_up_at = attempt_times rpc ~src:d.p1 ~target:(Some d.lmk) in
  Alcotest.(check (list (float 1e-9))) "attempt starts" [ 0.0; 40.0; 100.0; 200.0; 350.0 ] starts;
  Alcotest.(check (float 1e-9)) "gave up at the last deadline" 370.0 gave_up_at;
  List.iteri
    (fun i b ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "backoff_ms after attempt %d" (i + 1))
        b
        (Rpc.backoff_ms rpc ~attempt:(i + 1) ~deadline_ms:20.0))
    [ 20.0; 40.0; 80.0; 160.0 ];
  (* A deadline above the base leaves the configured backoff. *)
  Alcotest.(check (float 1e-9)) "base caps the backoff" 100.0
    (Rpc.backoff_ms rpc ~attempt:2 ~deadline_ms:80.0)

(* An attempt without a target waits [timeout_ms], so the backoff after
   it is the configured one: attempts at 0, 150 (100 + 50) and 350
   (250 + 100), and the give-up at 450, [worst_case_ms]. *)
let test_no_target_keeps_the_configured_backoff () =
  let d, transport = drawing () in
  let rpc = Rpc.create ~config transport in
  let starts, gave_up_at = attempt_times rpc ~src:d.p1 ~target:None in
  Alcotest.(check (list (float 1e-9))) "attempt starts" [ 0.0; 150.0; 350.0 ] starts;
  Alcotest.(check (float 1e-9)) "gave up at worst_case_ms" (Rpc.worst_case_ms config) gave_up_at

(* Settling releases what the call's callbacks capture, although the
   attempt's timeout is still queued: a block only [on_reply] holds is
   collected while the call's last event waits in the engine. *)
let test_settled_call_lets_go () =
  let d, transport = drawing () in
  let e = Transport.engine transport in
  let rpc = Rpc.create ~config transport in
  let held = Weak.create 1 and replied = ref false in
  let start () =
    let block = Array.make 64 0 in
    Weak.set held 0 (Some block);
    Rpc.call rpc ~src:d.p1
      ~dst:(fun ~attempt:_ -> Some d.lmk)
      ~request_parts:[ ("other", 10) ]
      ~reply_parts:(fun _ -> [ ("other", 10) ])
      ~handle:(fun ~dst:_ -> Some ())
      ~on_reply:(fun () -> replied := Array.length (Sys.opaque_identity block) = 64)
      ~on_give_up:(fun () -> Alcotest.fail "gave up on a clean call")
  in
  start ();
  (* The reply lands at 10 ms; the attempt's 20 ms deadline stays
     queued. *)
  Engine.run ~until:15.0 e;
  Alcotest.(check bool) "settled" true !replied;
  Alcotest.(check int) "timeout still queued" 1 (Engine.pending e);
  Gc.full_major ();
  Alcotest.(check bool) "on_reply's capture collected" false (Weak.check held 0);
  Engine.run e;
  Alcotest.(check int) "one attempt" 1 (counter rpc "rpc_attempts");
  Alcotest.(check int) "no timeout counted" 0 (counter rpc "rpc_timeouts")

(* The words a call allocates, beyond those of one answered at once,
   when its first requests reach a server that is down: for the first
   retried attempt, and for each later one. *)
let retry_words () =
  let g = Topology.Graph.of_edges ~node_count:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let e = Engine.create () in
  let transport = Transport.create e (Traceroute.Route_oracle.create g) in
  let rpc = Rpc.create ~config transport in
  let request_parts = [ ("other", 10) ] and reply_parts () = [ ("other", 10) ] in
  let left = ref 0 and replies = ref 0 in
  let handle ~dst:_ = if !left > 0 then (decr left; None) else Some () in
  let on_reply () = incr replies in
  let words ~unserved =
    let calls = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      left := unserved;
      Rpc.call rpc ~src:0 ~dst:(fun ~attempt:_ -> Some 5) ~request_parts ~reply_parts ~handle
        ~on_reply ~on_give_up:ignore;
      Engine.run e
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  (* Warm up each latency the stream will see. *)
  List.iter (fun unserved -> ignore (words ~unserved)) [ 0; 1; 2 ];
  let clean = words ~unserved:0 in
  let one = words ~unserved:1 and two = words ~unserved:2 in
  Alcotest.(check int) "every call answered" 600 !replies;
  (one -. clean, two -. one)

(* A retried attempt costs 19 words: its backoff and its deadline, a
   boxed float each (4); its request's delivery closure (7) and delay (2);
   and the engine's clock, boxed at each of the attempt's three events
   (6).  No closure per backoff, no boxed round trip.  The first retry
   also relabels the request as one "retry" part, a pair and a cons cell
   (6), once per call. *)
let test_retried_attempt_words () =
  let first, later = retry_words () in
  Alcotest.(check (float 0.0)) "a later retried attempt" 19.0 later;
  Alcotest.(check (float 0.0)) "the first retried attempt" 25.0 first

(* Random connected graphs, loss in [0, 0.6], random configs (one in five
   with [max_attempts = 1]) and a server that is sometimes down: every
   call settles exactly once, within [worst_case_ms] of its start, and
   gives up no sooner than [timeout_ms] before that, after its last
   attempt.  No backoff -- the gap between an attempt's deadline and the
   next attempt -- exceeds min(base, deadline) * mult^(n-1) * (1 + jitter),
   so none exceeds the configured base * mult^(n-1) * (1 + jitter).
   Without loss or a down server, and with a ceiling above the longest
   round trip (1 ms a hop each way, plus 5% jitter), no attempt times
   out and every call makes one; with [max_attempts = 1] every call sends
   one request. *)
let qcheck_calls_settle_within_budget =
  let gen =
    QCheck.Gen.(
      map
        (fun ((seed, nodes, loss, down), (timeout, single, attempts, base), (mult, jitter)) ->
          (seed, nodes, loss, down, timeout, (if single then 1 else attempts), base, mult, jitter))
        (triple
           (quad int (int_range 2 30) (oneof [ return 0.0; float_range 0.0 0.6 ]) bool)
           (quad (float_range 1.0 300.0) (frequency [ (1, return true); (4, return false) ])
              (int_range 1 6) (float_range 0.0 150.0))
           (pair (float_range 1.0 3.0) (float_range 0.0 0.5))))
  in
  let print (seed, nodes, loss, down, timeout, attempts, base, mult, jitter) =
    Printf.sprintf
      "seed=%d nodes=%d loss=%.3f down=%b timeout=%.1f attempts=%d base=%.1f mult=%.2f jitter=%.2f"
      seed nodes loss down timeout attempts base mult jitter
  in
  QCheck.Test.make ~name:"rpc: every call settles once, within worst_case_ms" ~count:200
    (QCheck.make ~print gen)
    (fun (seed, nodes, loss, down, timeout_ms, max_attempts, backoff_base_ms, backoff_multiplier, jitter_frac) ->
      let rng = Prelude.Prng.create seed in
      (* A random spanning tree, then a few chords. *)
      let edges = Hashtbl.create 64 in
      let add u v = if u <> v then Hashtbl.replace edges (min u v, max u v) () in
      for v = 1 to nodes - 1 do
        add v (Prelude.Prng.int rng v)
      done;
      for _ = 1 to nodes / 3 do
        add (Prelude.Prng.int rng nodes) (Prelude.Prng.int rng nodes)
      done;
      let g =
        Topology.Graph.of_edges ~node_count:nodes (Hashtbl.fold (fun e () acc -> e :: acc) edges [])
      in
      let e = Engine.create () in
      let transport =
        Transport.create ~rng:(Prelude.Prng.split rng) ~loss_prob:loss e
          (Traceroute.Route_oracle.create g)
      in
      let config = { Rpc.timeout_ms; max_attempts; backoff_base_ms; backoff_multiplier; jitter_frac } in
      let rpc = Rpc.create ~config ~rng:(Prelude.Prng.split rng) transport in
      let budget = Rpc.worst_case_ms config in
      let calls = 20 in
      let settled = Array.make calls 0 and late = ref 0 and early = ref 0 in
      let over = ref 0 in
      for i = 0 to calls - 1 do
        let start = Prelude.Prng.float rng 100.0 in
        let src = Prelude.Prng.int rng nodes in
        let targets = Array.init 3 (fun _ -> Prelude.Prng.int rng nodes) in
        Engine.schedule_at e ~time:start (fun () ->
            let settle () =
              settled.(i) <- settled.(i) + 1;
              if Engine.now e > start +. budget +. 1e-9 then incr late
            in
            let give_up () =
              settle ();
              if Engine.now e < start +. budget -. timeout_ms -. 1e-9 then incr early
            in
            (* The latest the next attempt may start: the current one's
               deadline plus its largest backoff. *)
            let next_by = ref infinity in
            Rpc.call rpc ~src
              ~dst:(fun ~attempt ->
                let target = targets.((attempt - 1) mod 3) and now = Engine.now e in
                if now > !next_by +. 1e-6 then incr over;
                let rtt =
                  Transport.one_way_delay transport ~src ~dst:target
                  +. Transport.one_way_delay transport ~src:target ~dst:src
                in
                let deadline = Float.max 1.0 (Float.min timeout_ms (2.0 *. rtt)) in
                next_by :=
                  now +. deadline
                  +. Float.min backoff_base_ms deadline
                     *. (backoff_multiplier ** float_of_int (attempt - 1))
                     *. (1.0 +. jitter_frac);
                Some target)
              ~request_parts:[ ("other", 10) ]
              ~reply_parts:(fun () -> [ ("other", 10) ])
              ~handle:(fun ~dst:_ -> if down && Prelude.Prng.bool rng then None else Some ())
              ~on_reply:settle ~on_give_up:give_up)
      done;
      Engine.run e;
      let counter = counter rpc in
      Array.for_all (fun n -> n = 1) settled
      && !late = 0
      && !early = 0
      && !over = 0
      && counter "rpc_calls" = calls
      && (loss > 0.0 || down
         || timeout_ms <= 2.1 *. float_of_int (nodes - 1)
         || (counter "rpc_timeouts" = 0 && counter "rpc_attempts" = calls))
      && (max_attempts > 1 || counter "rpc_attempts" = calls && counter "rpc_retries" = 0))

(* One clean call writes the flat and labeled names a per-name write
   created, through cells resolved at their first write: no failure-path
   name appears.  A call that is never served writes no success name. *)
let test_trace_names_after_one_call () =
  let d, transport = drawing () in
  let labeled = Metrics.create () in
  let rpc = Rpc.create ~config ~labeled transport in
  Rpc.call rpc ~src:d.p1
    ~dst:(fun ~attempt:_ -> Some d.lmk)
    ~request_parts:[ ("other", 50) ]
    ~reply_parts:(fun _ -> [ ("other", 500) ])
    ~handle:(fun ~dst:_ -> Some 42)
    ~on_reply:ignore ~on_give_up:ignore;
  Engine.run (Transport.engine transport);
  Alcotest.(check (list (pair string int)))
    "counters"
    [ ("rpc_attempts", 1); ("rpc_calls", 1); ("rpc_ok", 1) ]
    (Trace.counters (Rpc.trace rpc));
  Alcotest.(check (list string)) "streams" [ "rpc_latency_ms" ]
    (List.map fst (Trace.summaries (Rpc.trace rpc)));
  Alcotest.(check (list string))
    "labeled series"
    [ {|rpc_latency_ms{outcome="ok"}|}; {|rpc_outcomes{outcome="ok"}|} ]
    (List.map (fun (_, _, key) -> key) (Metrics.series labeled));
  Alcotest.(check int) "labeled ok" 1 (Metrics.counter labeled "rpc_outcomes" ~labels:[ ("outcome", "ok") ]);
  Alcotest.(check (option int))
    "labeled latency samples" (Some 1)
    (Option.map
       (fun (s : Trace.summary) -> s.count)
       (Metrics.summary labeled "rpc_latency_ms" ~labels:[ ("outcome", "ok") ]));
  let labeled = Metrics.create () in
  let rpc = Rpc.create ~config ~labeled transport in
  Rpc.call rpc ~src:d.p1
    ~dst:(fun ~attempt:_ -> Some d.lmk)
    ~request_parts:[ ("other", 50) ]
    ~reply_parts:(fun _ -> [ ("other", 500) ])
    ~handle:(fun ~dst:_ -> None)
    ~on_reply:ignore ~on_give_up:ignore;
  Engine.run (Transport.engine transport);
  Alcotest.(check (list string))
    "unserved counters"
    [ "rpc_attempts"; "rpc_calls"; "rpc_gave_up"; "rpc_retries"; "rpc_timeouts"; "rpc_unserved" ]
    (List.map fst (Trace.counters (Rpc.trace rpc)));
  Alcotest.(check (list string)) "no latency stream" [] (List.map fst (Trace.summaries (Rpc.trace rpc)));
  Alcotest.(check (list string))
    "unserved labeled series"
    [
      {|rpc_outcomes{outcome="gave_up"}|};
      {|rpc_outcomes{outcome="timeout"}|};
      {|rpc_outcomes{outcome="unserved"}|};
    ]
    (List.map (fun (_, _, key) -> key) (Metrics.series labeled))

let suite =
  ( "rpc",
    [
      Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "clean call, one attempt" `Quick test_clean_call_single_attempt;
      Alcotest.test_case "gives up after max attempts" `Quick test_gives_up_after_max_attempts;
      Alcotest.test_case "retry fails over" `Quick test_retry_fails_over_to_second_target;
      Alcotest.test_case "unserved then recovered" `Quick test_unserved_then_recovered;
      Alcotest.test_case "settles once on duplicates" `Quick
        test_settles_once_under_duplicate_replies;
      Alcotest.test_case "no target terminates" `Quick test_no_target_still_terminates;
      Alcotest.test_case "backoff jitter spread" `Quick test_backoff_jitter_spread;
      Alcotest.test_case "backoff from the deadline" `Quick test_backoff_from_the_deadline;
      Alcotest.test_case "no target keeps the configured backoff" `Quick
        test_no_target_keeps_the_configured_backoff;
      Alcotest.test_case "a settled call lets go" `Quick test_settled_call_lets_go;
      Alcotest.test_case "trace names after one call" `Quick test_trace_names_after_one_call;
      Alcotest.test_case "a retried attempt's words" `Quick test_retried_attempt_words;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
        qcheck_calls_settle_within_budget;
    ] )
