(* Maintenance: client-side neighbor-set refresh. *)

open Nearby

let fixture ~seed =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 400) ~seed in
  let rng = Prelude.Prng.create seed in
  let landmarks = Landmark.place map.graph Landmark.Medium_degree ~count:4 ~rng in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let server = Server.create oracle ~landmarks in
  let engine = Simkit.Engine.create () in
  (map, server, Client.create oracle ~landmarks, engine)

let test_create_validation () =
  let _, server, _, engine = fixture ~seed:1 in
  Alcotest.check_raises "bad k" (Invalid_argument "Maintenance.create: k must be >= 1") (fun () ->
      ignore
        (Maintenance.create ~engine ~server ~is_alive:(fun _ -> true)
           { k = 0; refresh_period_ms = 1.0 }));
  Alcotest.check_raises "bad period" (Invalid_argument "Maintenance.create: period must be positive")
    (fun () ->
      ignore
        (Maintenance.create ~engine ~server ~is_alive:(fun _ -> true)
           { k = 3; refresh_period_ms = 0.0 }))

let test_track_untrack () =
  let map, server, client, engine = fixture ~seed:2 in
  let m =
    Maintenance.create ~engine ~server ~is_alive:(fun _ -> true) { k = 3; refresh_period_ms = 100.0 }
  in
  Alcotest.check_raises "unregistered peer" Not_found (fun () -> Maintenance.track m ~peer:0);
  for peer = 0 to 9 do
    ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer))
  done;
  Maintenance.track m ~peer:0;
  Alcotest.(check bool) "tracked" true (Maintenance.is_tracked m ~peer:0);
  Alcotest.(check int) "one tracked" 1 (Maintenance.tracked_count m);
  let set = Maintenance.current_set m ~peer:0 in
  Alcotest.(check int) "initial set filled" 3 (List.length set);
  Alcotest.(check bool) "no self" true (List.for_all (fun p -> p <> 0) set);
  Alcotest.check_raises "double track" (Invalid_argument "Maintenance.track: already tracked")
    (fun () -> Maintenance.track m ~peer:0);
  Maintenance.untrack m ~peer:0;
  Alcotest.(check bool) "untracked" false (Maintenance.is_tracked m ~peer:0);
  Alcotest.(check (list int)) "empty set" [] (Maintenance.current_set m ~peer:0)

let test_refresh_replaces_dead () =
  let map, server, client, engine = fixture ~seed:3 in
  let dead : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let is_alive p = not (Hashtbl.mem dead p) in
  let m = Maintenance.create ~engine ~server ~is_alive { k = 3; refresh_period_ms = 100.0 } in
  for peer = 0 to 19 do
    ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer))
  done;
  Maintenance.track m ~peer:0;
  let before = Maintenance.current_set m ~peer:0 in
  Alcotest.(check (float 1e-9)) "all live initially" 1.0 (Maintenance.live_fraction m);
  (* Kill one of peer 0's neighbors (and deregister it, as crash detection
     eventually would). *)
  let victim = List.hd before in
  Hashtbl.replace dead victim ();
  Server.leave server ~peer:victim;
  Alcotest.(check bool) "fraction dips" true (Maintenance.live_fraction m < 1.0);
  Simkit.Engine.run ~until:250.0 engine;
  let after = Maintenance.current_set m ~peer:0 in
  Alcotest.(check int) "set refilled" 3 (List.length after);
  Alcotest.(check bool) "victim evicted" true (List.for_all (fun p -> p <> victim) after);
  Alcotest.(check (float 1e-9)) "all live again" 1.0 (Maintenance.live_fraction m);
  Alcotest.(check bool) "replacement counted" true (Maintenance.replacements m >= 1)

let test_refresh_stops_after_untrack () =
  let map, server, client, engine = fixture ~seed:4 in
  let m =
    Maintenance.create ~engine ~server ~is_alive:(fun _ -> true) { k = 2; refresh_period_ms = 50.0 }
  in
  for peer = 0 to 5 do
    ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer))
  done;
  Maintenance.track m ~peer:0;
  Maintenance.untrack m ~peer:0;
  (* The pending refresh event fires harmlessly and does not reschedule
     forever: the engine must drain. *)
  Simkit.Engine.run ~until:1_000.0 engine;
  Alcotest.(check int) "engine drained" 0 (Simkit.Engine.pending engine)

let test_untracks_when_server_forgets () =
  let map, server, client, engine = fixture ~seed:5 in
  let m =
    Maintenance.create ~engine ~server ~is_alive:(fun _ -> true) { k = 2; refresh_period_ms = 50.0 }
  in
  for peer = 0 to 5 do
    ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer))
  done;
  Maintenance.track m ~peer:0;
  Server.leave server ~peer:0;
  Simkit.Engine.run ~until:500.0 engine;
  Alcotest.(check bool) "auto-untracked" false (Maintenance.is_tracked m ~peer:0);
  Alcotest.(check int) "no dangling refresh" 0 (Simkit.Engine.pending engine)

let test_maintenance_exp_smoke () =
  let checkpoints =
    Eval.Maintenance_exp.run { Eval.Maintenance_exp.quick_config with routers = 400; checkpoints = 2 }
  in
  Alcotest.(check int) "checkpoints" 2 (List.length checkpoints);
  List.iter
    (fun (c : Eval.Maintenance_exp.checkpoint) ->
      Alcotest.(check bool) "fractions in [0,1]" true
        (c.frozen_live_fraction >= 0.0 && c.frozen_live_fraction <= 1.0
        && c.maintained_live_fraction >= 0.0
        && c.maintained_live_fraction <= 1.0 +. 1e-9);
      Alcotest.(check bool) "maintenance no worse than frozen" true
        (c.maintained_live_fraction +. 0.05 >= c.frozen_live_fraction))
    checkpoints

let suite =
  ( "maintenance",
    [
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "track/untrack" `Quick test_track_untrack;
      Alcotest.test_case "refresh replaces dead" `Quick test_refresh_replaces_dead;
      Alcotest.test_case "refresh stops after untrack" `Quick test_refresh_stops_after_untrack;
      Alcotest.test_case "auto-untrack on server leave" `Quick test_untracks_when_server_forgets;
      Alcotest.test_case "experiment smoke" `Slow test_maintenance_exp_smoke;
    ] )
