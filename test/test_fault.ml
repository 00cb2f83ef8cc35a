(* Fault: scripted scenarios fire the right hooks at the right times. *)

open Simkit

let test_validation () =
  let bad name t =
    match Fault.validate t with
    | Ok () -> Alcotest.fail (name ^ ": expected a validation error")
    | Error _ -> ()
  in
  bad "negative time"
    { Fault.name = "x"; steps = [ { at = -1.0; action = Fault.Heal_partition } ] };
  bad "out of order"
    {
      Fault.name = "x";
      steps =
        [
          { at = 10.0; action = Fault.Heal_partition };
          { at = 5.0; action = Fault.Heal_partition };
        ];
    };
  bad "loss out of range" { Fault.name = "x"; steps = [ { at = 0.0; action = Fault.Set_loss 1.0 } ] };
  bad "negative replica"
    { Fault.name = "x"; steps = [ { at = 0.0; action = Fault.Crash_replica (-1) } ] };
  (match Fault.validate (Fault.crash_primary ~crash_at:100.0 ~recover_at:200.0 ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check_raises "builder guards order"
    (Invalid_argument "Fault.crash_primary: recover_at <= crash_at") (fun () ->
      ignore (Fault.crash_primary ~crash_at:200.0 ~recover_at:100.0 ()))

let test_steps_fire_in_order () =
  let engine = Engine.create () in
  let events = ref [] in
  let record e = events := (Engine.now engine, e) :: !events in
  let scenario =
    {
      Fault.name = "script";
      steps =
        [
          { at = 100.0; action = Fault.Crash_replica 2 };
          { at = 250.0; action = Fault.Set_loss 0.3 };
          { at = 400.0; action = Fault.Partition [ 1; 2 ] };
          { at = 500.0; action = Fault.Heal_partition };
          { at = 600.0; action = Fault.Recover_replica 2 };
        ];
    }
  in
  Fault.install scenario ~engine
    ~hooks:
      {
        Fault.crash_replica = (fun i -> record (Printf.sprintf "crash %d" i));
        recover_replica = (fun i -> record (Printf.sprintf "recover %d" i));
        set_loss = (fun p -> record (Printf.sprintf "loss %.1f" p));
        partition = (fun nodes -> record (Printf.sprintf "cut %d" (List.length nodes)));
        heal_partition = (fun () -> record "heal");
      };
  Engine.run engine;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "all steps at their times"
    [
      (100.0, "crash 2");
      (250.0, "loss 0.3");
      (400.0, "cut 2");
      (500.0, "heal");
      (600.0, "recover 2");
    ]
    (List.rev !events)

let test_loss_burst_drives_transport () =
  (* End to end through real hooks: messages sent inside the burst window
     are lossy, messages outside are not. *)
  let d = Eval.Paper_drawing.build () in
  let oracle = Traceroute.Route_oracle.create d.graph in
  let engine = Engine.create () in
  let rng = Prelude.Prng.create 9 in
  let transport = Transport.create ~rng engine oracle in
  Fault.install
    (Fault.loss_burst ~from_ms:1_000.0 ~until_ms:2_000.0 ~loss:0.9 ())
    ~engine
    ~hooks:{ Fault.null_hooks with set_loss = Transport.set_loss_prob transport };
  let delivered_in = ref 0 and delivered_out = ref 0 in
  for i = 0 to 49 do
    (* 50 messages inside the window, 50 after it closes. *)
    Engine.schedule_at engine ~time:(1_100.0 +. float_of_int i) (fun () ->
        Transport.send ~kind:"other" ~dir:"oneway"
          transport ~src:d.p1 ~dst:d.p2 ~size_bytes:10 (fun () ->
            incr delivered_in));
    Engine.schedule_at engine ~time:(2_100.0 +. float_of_int i) (fun () ->
        Transport.send ~kind:"other" ~dir:"oneway"
          transport ~src:d.p1 ~dst:d.p2 ~size_bytes:10 (fun () ->
            incr delivered_out))
  done;
  Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "burst window lossy (%d/50)" !delivered_in)
    true (!delivered_in < 25);
  Alcotest.(check int) "after the window, clean" 50 !delivered_out;
  Alcotest.(check (float 1e-9)) "loss restored" 0.0 (Transport.loss_prob transport)

let test_describe () =
  Alcotest.(check string) "empty" "none: no faults" (Fault.describe Fault.none);
  Alcotest.(check string)
    "crash-primary"
    "crash-primary: t=100 crash replica 0; t=300 recover replica 0"
    (Fault.describe (Fault.crash_primary ~crash_at:100.0 ~recover_at:300.0 ()))

let suite =
  ( "fault",
    [
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "steps fire in order" `Quick test_steps_fire_in_order;
      Alcotest.test_case "loss burst drives transport" `Quick test_loss_burst_drives_transport;
      Alcotest.test_case "describe" `Quick test_describe;
    ] )
