(* Client: the newcomer's side of the join. *)

open Nearby

let make_workload = Test_server.make_workload

(* Sixty joins on one 400-router map under five client configurations,
   pinned to the values they gave when the measurement was written: what
   was registered (the server digest), what it cost (summed probe
   packets) and how long it took (summed measurement time, which the
   server records as its [join_ms] stream). *)
let test_pinned_configurations () =
  let map, oracle, landmarks, _ = make_workload ~landmarks:5 ~seed:21 () in
  let latency =
    Topology.Latency.assign map.graph
      (Topology.Latency.Core_weighted { core_ms = 2.0; edge_ms = 15.0; threshold = 8 })
      ~seed:22
  in
  let lossy = { Traceroute.Probe.default_config with drop_prob = 0.3 } in
  let run ?truncate ?probe_config ?latency ?choice ~rng () =
    let server = Server.create oracle ~landmarks in
    let client = Client.create ?truncate ?probe_config ?latency ?choice oracle ~landmarks in
    let rng = Option.map Prelude.Prng.create rng in
    let probes = ref 0 in
    for peer = 0 to 59 do
      let attach_router = map.leaves.(peer * 7 mod Array.length map.leaves) in
      probes := !probes + (Server.join ?rng server ~client ~peer ~attach_router).probes_spent
    done;
    let ms = Prelude.Stats.sum (Option.get (Simkit.Trace.stat (Server.trace server) "join_ms")) in
    (Printf.sprintf "%Lx" (Server.digest server), !probes, Printf.sprintf "%.6f" ms)
  in
  let check name expected got = Alcotest.(check (triple string int string)) name expected got in
  check "default" ("6d8138bcf24fdd26", 588, "1152.000000") (run ~rng:None ());
  check "uniform" ("43bdd80ff07b552d", 409, "818.000000") (run ~choice:Client.Uniform ~rng:None ());
  check "last 3 hops"
    ("c97cfe75c9e98f9c", 470, "1152.000000")
    (run ~truncate:(Traceroute.Truncate.Last_k 3) ~rng:None ());
  check "lossy probes"
    ("79801486719b923b", 588, "1146.735650")
    (run ~probe_config:lossy ~rng:(Some 5) ());
  check "core-weighted latency"
    ("2f9848500865feae", 611, "14510.944014")
    (run ~latency ~rng:(Some 6) ())

let test_create_validation () =
  let _, oracle, _, _ = make_workload ~seed:1 () in
  Alcotest.check_raises "no landmarks" (Invalid_argument "Client.create: no landmarks") (fun () ->
      ignore (Client.create oracle ~landmarks:[||]))

let test_uniform_choice () =
  let map, oracle, lmks, _ = make_workload ~seed:10 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create ~choice:Client.Uniform oracle ~landmarks:lmks in
  (* With uniform choice and many joins, more than one landmark gets used. *)
  let used = Hashtbl.create 4 in
  for peer = 0 to 39 do
    let info = Server.join server ~client ~peer ~attach_router:map.leaves.(peer) in
    Hashtbl.replace used info.landmark ()
  done;
  Alcotest.(check bool) "several landmarks used" true (Hashtbl.length used > 1);
  (* Uniform choice skips the ping round: probe cost excludes landmark count. *)
  Server.check_invariants server

let test_truncated_tool () =
  let map, oracle, lmks, _ = make_workload ~seed:11 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client = Client.create ~truncate:(Traceroute.Truncate.Last_k 3) oracle ~landmarks:lmks in
  for peer = 0 to 19 do
    ignore (Server.join server ~client ~peer ~attach_router:map.leaves.(peer))
  done;
  Server.check_invariants server;
  let reply = Server.neighbors server ~peer:0 ~k:5 in
  Alcotest.(check bool) "still answers" true (List.length reply > 0)

let test_probe_noise_does_not_break_registration () =
  let map, oracle, lmks, _ = make_workload ~seed:12 () in
  let server = Server.create oracle ~landmarks:lmks in
  let client =
    Client.create
      ~probe_config:{ Traceroute.Probe.default_config with drop_prob = 0.5 }
      oracle ~landmarks:lmks
  in
  let rng = Prelude.Prng.create 99 in
  for peer = 0 to 19 do
    ignore (Server.join ~rng server ~client ~peer ~attach_router:map.leaves.(peer))
  done;
  Server.check_invariants server;
  Alcotest.(check int) "all registered" 20 (Server.peer_count server)

(* The measurement on a warm route oracle allocates the recorded path and
   the measurement record: pings read hop counts, the trace is read
   straight into its hop array, and the full strategy keeps that path. *)
let test_measure_allocation () =
  let map, oracle, lmks, _ = make_workload ~seed:5 () in
  let client = Client.create oracle ~landmarks:lmks in
  let attach_router = map.leaves.(0) in
  let first = Client.measure client ~attach_router in
  let before = Gc.minor_words () in
  let m = Client.measure client ~attach_router in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "same path" true (Traceroute.Path.equal first.path m.path);
  Alcotest.(check int) "a 4-hop route" 4 (Traceroute.Path.hop_count m.path);
  (* 81 words measured. *)
  Alcotest.(check bool)
    (Printf.sprintf "measure allocates %.0f words" words)
    true (words <= 88.0)

(* The first round leaves at the later of the closest landmark's echo and
   the RTT to hop h, not at the hop-count convention for a trace that
   stops short: 2 h ms on hop counts, twice the latency over routers 0..h
   on a latency table.  It uploads the trace's first h hops; the join's
   measurement is {!Client.measure}'s, counting h more TTL probes per
   other landmark. *)
let test_first_round_clock () =
  let map, oracle, landmarks, _ = make_workload ~landmarks:5 ~seed:21 () in
  let latency =
    Topology.Latency.assign map.graph
      (Topology.Latency.Core_weighted { core_ms = 2.0; edge_ms = 15.0; threshold = 8 })
      ~seed:22
  in
  let h = Client.prefix_hops in
  let checked = ref 0 in
  List.iter
    (fun latency ->
      let client = Client.create ?latency oracle ~landmarks in
      Array.iteri
        (fun i attach_router ->
          if i mod 5 = 0 then begin
            let full = Client.measure client ~attach_router in
            let m = Client.measure_join client ~attach_router in
            let probes = full.probes + ((Array.length landmarks - 1) * h) in
            Alcotest.(check bool) "measure's, with h probes per other landmark" true
              (m = { full with probes });
            let route =
              Traceroute.Route_oracle.route_array oracle ~src:attach_router ~dst:full.landmark
            in
            let first = Client.first_round_ms client m in
            if Array.length route - 1 > h then begin
              incr checked;
              let one_way =
                match latency with
                | None -> float_of_int h
                | Some table -> Topology.Latency.path_latency table (Array.sub route 0 (h + 1))
              in
              Alcotest.(check (float 1e-9)) "the echo or the RTT to hop h"
                (Float.max full.ping_ms (2.0 *. one_way))
                first;
              Alcotest.(check bool) "before the whole trace" true (first < Client.duration_ms m);
              Alcotest.(check (array int)) "the route's first h hops" (Array.sub route 0 (h + 1))
                (Client.prefix m)
            end
            else begin
              Alcotest.(check (float 1e-9)) "a short route: the echo or the trace"
                (Float.max full.ping_ms full.traceroute_ms)
                first;
              Alcotest.(check (array int)) "a short route is its own prefix" route (Client.prefix m)
            end
          end)
        map.leaves)
    [ None; Some latency ];
  Alcotest.(check bool) "some routes longer than the prefix" true (!checked > 10)

let suite =
  ( "client",
    [
      Alcotest.test_case "pinned configurations" `Quick test_pinned_configurations;
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "uniform landmark choice" `Quick test_uniform_choice;
      Alcotest.test_case "truncated tool" `Quick test_truncated_tool;
      Alcotest.test_case "probe noise" `Quick test_probe_noise_does_not_break_registration;
      Alcotest.test_case "measure allocation" `Quick test_measure_allocation;
      Alcotest.test_case "prefix round clock" `Quick test_first_round_clock;
    ] )
