(* Live streaming join scenario (the paper's motivating application, Section 1).

   A mesh-based live streaming swarm is already running; newcomers arrive
   and must pick neighbors before playback can start.  We drive the joins
   through the event-driven protocol on a latency-weighted map, so every
   newcomer is charged its real protocol time, and then compare:

   - setup delay: time from join start until the neighbor reply arrives;
   - neighbor proximity: hop distance to the chosen neighbors (what chunk
     exchange latency and playback-delay alignment depend on)
   against random selection and against waiting for Vivaldi to converge. *)

let routers = 1200
let initial_swarm = 150
let newcomers = 50
let k = 4
let seed = 42

let () =
  let w =
    Eval.Workload.build ~routers ~landmark_count:6
      ~latency:(Topology.Latency.Core_weighted { core_ms = 2.0; edge_ms = 15.0; threshold = 8 })
      ~peers:(initial_swarm + newcomers) ~seed ()
  in
  let rng = w.rng in
  Format.printf "Swarm bootstrap: %d peers already in the mesh, %d newcomers to join.@."
    initial_swarm newcomers;

  (* Stand the server up and pre-register the existing swarm. *)
  let engine = Simkit.Engine.create () in
  let server = Nearby.Server.create w.ctx.oracle ~landmarks:w.landmarks in
  let client = Nearby.Client.create ?latency:w.ctx.latency w.ctx.oracle ~landmarks:w.landmarks in
  let transport = Simkit.Transport.create ?latency:w.ctx.latency engine w.ctx.oracle in
  let protocol =
    Nearby.Protocol.create_resilient ~client ~rpc:(Simkit.Rpc.create transport)
      (Nearby.Cluster.single ~transport ~router:w.landmarks.(0) server)
  in
  for peer = 0 to initial_swarm - 1 do
    ignore (Nearby.Server.join server ~client ~peer ~attach_router:w.peer_routers.(peer))
  done;

  (* Newcomers join through the timed protocol. *)
  let setup = Prelude.Stats.create () in
  let neighbor_hops = Prelude.Stats.create () in
  for peer = initial_swarm to initial_swarm + newcomers - 1 do
    let attach_router = w.peer_routers.(peer) in
    let started_at = Simkit.Engine.now engine in
    Nearby.Protocol.join protocol ~peer ~attach_router ~k ~on_complete:(fun _info reply ->
        Prelude.Stats.add setup (Simkit.Engine.now engine -. started_at);
        List.iter
          (fun (neighbor, _) ->
            let hops =
              Topology.Bfs.distance w.ctx.graph attach_router w.peer_routers.(neighbor)
            in
            if hops <> max_int then Prelude.Stats.add neighbor_hops (float_of_int hops))
          reply)
  done;
  Simkit.Engine.run engine;

  Format.printf "@.Proposed scheme (landmark traceroute + management server):@.";
  Format.printf "  mean setup delay: %.0f ms (min %.0f, max %.0f)@." (Prelude.Stats.mean setup)
    (Prelude.Stats.min_value setup) (Prelude.Stats.max_value setup);
  Format.printf "  mean hop distance to chosen neighbors: %.2f@." (Prelude.Stats.mean neighbor_hops);

  (* Random selection: instant but far away. *)
  let random_hops = Prelude.Stats.create () in
  for peer = initial_swarm to initial_swarm + newcomers - 1 do
    for _ = 1 to k do
      let other = Prelude.Prng.int rng initial_swarm in
      let hops = Topology.Bfs.distance w.ctx.graph w.peer_routers.(peer) w.peer_routers.(other) in
      if hops <> max_int then Prelude.Stats.add random_hops (float_of_int hops)
    done
  done;
  Format.printf "@.Random selection (zero setup):@.";
  Format.printf "  mean hop distance to chosen neighbors: %.2f@." (Prelude.Stats.mean random_hops);

  (* Vivaldi needs rounds of gossip before its estimates are usable. *)
  let rounds = 15 and round_period_ms = 250.0 in
  Format.printf "@.Vivaldi after %d gossip rounds (setup %.0f ms):@." rounds
    (Nearby.Protocol.vivaldi_setup_delay ~rounds ~round_period_ms);
  let sets =
    Nearby.Selector.select w.ctx
      (Vivaldi_rounds { rounds; params = Coord.Vivaldi.default_params })
      ~k ~rng
  in
  let vivaldi_hops = Prelude.Stats.create () in
  for peer = initial_swarm to initial_swarm + newcomers - 1 do
    Array.iter
      (fun neighbor ->
        let hops = Topology.Bfs.distance w.ctx.graph w.peer_routers.(peer) w.peer_routers.(neighbor) in
        if hops <> max_int then Prelude.Stats.add vivaldi_hops (float_of_int hops))
      sets.(peer)
  done;
  Format.printf "  mean hop distance to chosen neighbors: %.2f@." (Prelude.Stats.mean vivaldi_hops);

  Format.printf
    "@.Takeaway: one traceroute's worth of setup buys near-Vivaldi proximity@.\
     thousands of milliseconds sooner - the paper's \"quicker way\".@."
