(* Churn and mobility scenario (extension E3 at example scale).

   Peers arrive as a Poisson process, stay for heavy-tailed sessions, and
   depart by graceful leave, silent crash (detected only after a timeout)
   or mobility handover (instant re-join from a different access router).
   The example also demonstrates the handover API directly on one peer. *)

let () =
  (* 1. One peer's handover, step by step. *)
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 800) ~seed:3 in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let rng = Prelude.Prng.create 3 in
  let landmarks = Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:4 ~rng in
  let server = Nearby.Server.create oracle ~landmarks in
  let client = Nearby.Client.create oracle ~landmarks in
  let home = map.leaves.(0) and away = map.leaves.(Array.length map.leaves - 1) in
  let info = Nearby.Server.join server ~client ~peer:0 ~attach_router:home in
  Format.printf "peer 0 joins at router %d -> landmark %d, %d-hop path@." home info.landmark
    (Traceroute.Path.hop_count info.recorded_path);
  let info' = Nearby.Server.handover server ~client ~peer:0 ~attach_router:away in
  Format.printf "peer 0 hands over to router %d -> landmark %d, %d-hop path@." away info'.landmark
    (Traceroute.Path.hop_count info'.recorded_path);
  Format.printf "  (the server re-registered the peer under its new closest landmark)@.@.";

  (* 2. Population-scale churn. *)
  let config = Eval.Churn_exp.quick_config in
  let detection_note =
    match config.detection with
    | Eval.Churn_exp.Fixed_delay d -> Printf.sprintf "crashes detected after a fixed %.0f s" (d /. 1000.0)
    | Eval.Churn_exp.Heartbeat fd ->
        Printf.sprintf "heartbeat detector: %.0f s beats, %.1f s timeout"
          (fd.heartbeat_period_ms /. 1000.0) (fd.timeout_ms /. 1000.0)
  in
  Format.printf "Running the churn simulation (%.0f s horizon, %s)...@.@."
    (config.spec.horizon_ms /. 1000.0) detection_note;
  Eval.Churn_exp.print (Eval.Churn_exp.run config);
  print_newline ();
  print_endline "Reading the table: quality stays near the static-population level while";
  print_endline "peers come and go; the stale fraction tracks crashed-but-undetected peers";
  print_endline "and is bounded by the detection timeout."
