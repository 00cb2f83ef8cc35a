type choice = Closest | Uniform

type t = {
  oracle : Traceroute.Route_oracle.t;
  landmarks : Topology.Graph.node array;
  latency : Topology.Latency.t option;
  truncate : Traceroute.Truncate.strategy;
  probe_config : Traceroute.Probe.config;
  choice : choice;
  choice_rng : Prelude.Prng.t;
}

let create ?(truncate = Traceroute.Truncate.Full) ?(probe_config = Traceroute.Probe.default_config)
    ?latency ?(choice = Closest) oracle ~landmarks =
  if Array.length landmarks = 0 then invalid_arg "Client.create: no landmarks";
  let choice_rng = Prelude.Prng.create 0x5eed in
  { oracle; landmarks; latency; truncate; probe_config; choice; choice_rng }

type measurement = {
  landmark : Topology.Graph.node;
  path : Traceroute.Path.t;
  probes : int;
  landmarks_pinged : int;
  ping_ms : float;
  traceroute_ms : float;
  full_hops : int;
}

(* Round 1 + recording: ping all landmarks, traceroute to the winner,
   truncate per the configured decreased-tool strategy. *)
let measure_with ?rng ~extra_probes t ~attach_router =
  let landmark, ping_ms =
    match t.choice with
    | Closest ->
        Landmark.closest t.oracle ?latency:t.latency ?rng ~landmarks:t.landmarks attach_router
    | Uniform -> (Prelude.Prng.choose t.choice_rng t.landmarks, 0.0)
  in
  let probe =
    Traceroute.Probe.run ~config:t.probe_config ?latency:t.latency ?rng t.oracle ~src:attach_router
      ~dst:landmark
  in
  let full_hops = Traceroute.Path.hop_count probe.path in
  let graph = Traceroute.Route_oracle.graph t.oracle in
  let path = Traceroute.Truncate.apply ~graph t.truncate probe.path in
  (* Probe cost: one ping per landmark (round 1) plus the per-hop packets the
     decreased tool would really send. *)
  let landmarks_pinged = match t.choice with Closest -> Array.length t.landmarks | Uniform -> 0 in
  let probes =
    landmarks_pinged
    + (Traceroute.Truncate.probe_cost t.truncate ~full_hops * t.probe_config.probes_per_hop)
    + extra_probes
  in
  (* Traceroute duration: the measured RTT when a latency table produced
     one, else the hop-count convention (1 ms per link, there and back). *)
  let traceroute_ms =
    match probe.rtt_ms with Some rtt -> rtt | None -> 2.0 *. float_of_int full_hops
  in
  { landmark; path; probes; landmarks_pinged; ping_ms; traceroute_ms; full_hops }

let measure ?rng t ~attach_router = measure_with ?rng ~extra_probes:0 t ~attach_router

(* Three hops: their answers are back before the closest landmark's echo
   on most routes, so the first round seldom waits for them, and each hop
   costs one probe per other landmark.  Each hop fewer sends more joins
   round again: at two, E5's 400 joins at once into an empty server
   continued 340 times, and its mean setup rose 5.3% over the full trace;
   at three, 1.5% of bench/stack join-steady joins continue. *)
let prefix_hops = 3

(* TTLs 1..h go toward every landmark with the pings, so the first round
   waits for the closest landmark's echo, or for hop h when it answers
   later; the rest of the TTLs toward the winner leave then. *)
let measure_join ?rng t ~attach_router =
  let others = match t.choice with Closest -> Array.length t.landmarks - 1 | Uniform -> 0 in
  measure_with ?rng ~extra_probes:(others * prefix_hops * t.probe_config.probes_per_hop) t
    ~attach_router

let first_round_ms t (m : measurement) =
  let rtt_h =
    if m.full_hops <= prefix_hops then m.traceroute_ms
    else
      match t.latency with
      | None -> 2.0 *. float_of_int prefix_hops
      | Some table ->
          let route =
            Traceroute.Route_oracle.route_array t.oracle ~src:m.path.src ~dst:m.landmark
          in
          2.0 *. Topology.Latency.path_latency table (Array.sub route 0 (prefix_hops + 1))
  in
  Float.max m.ping_ms rtt_h

let prefix (m : measurement) =
  let hops = m.path.hops in
  let n = min (Array.length hops) (prefix_hops + 1) in
  let known = ref 0 in
  for i = 0 to n - 1 do
    match hops.(i) with Traceroute.Path.Known _ -> incr known | Anonymous -> ()
  done;
  let routers = Array.make !known 0 and j = ref 0 in
  for i = 0 to n - 1 do
    match hops.(i) with
    | Traceroute.Path.Known r ->
        routers.(!j) <- r;
        incr j
    | Anonymous -> ()
  done;
  routers

(* The one measurement clock: every join waits this long before its server
   round, and the server's join counters charge the same sum. *)
let[@inline] duration_ms m = m.ping_ms +. m.traceroute_ms

(* The client's measurement, as long as the measurement clock says: one
   span shape for the in-process [Server.join] and [Protocol.join] alike. *)
let measure_span ?dur spans ~parent ~peer m =
  if Simkit.Span.enabled spans then
    let open Simkit.Span in
    let dur = match dur with Some d -> d | None -> duration_ms m in
    emit spans ~name:"measure" ~ts:(now spans) ~dur ~tid:peer
      ~ctx:(context spans ~parent ())
      [
        ("peer", Int peer);
        ("landmark", Int m.landmark);
        ("landmarks_pinged", Int m.landmarks_pinged);
        ("rtt_ms", Float m.ping_ms);
        ("full_hops", Int m.full_hops);
        ("recorded_hops", Int (Traceroute.Path.hop_count m.path));
        ("probes_spent", Int m.probes);
      ]
