(* Running the discovery service on interchangeable registry backends.

   The server talks to its per-landmark store through the first-class
   [Nearby.Registry_intf.S] seam, so the same deployment runs centralized
   (path tree), decentralized over a Chord ring, or delegated to
   super-peer region stores — answers are identical, only the cost model
   changes.  This example joins one swarm under every backend,
   verifies the replies match, and prints what each backend reports
   through the uniform [stats] channel. *)

let () =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 1000) ~seed:11 in
  let rng = Prelude.Prng.create 11 in
  let landmarks = Nearby.Landmark.place map.graph Nearby.Landmark.Spread ~count:4 ~rng in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let peers = 150 in
  let k = 5 in
  let attach = Array.init peers (fun i -> map.leaves.(i mod Array.length map.leaves)) in

  (* One server per backend, same join sequence. *)
  let client = Nearby.Client.create oracle ~landmarks in
  let deploy backend =
    let server = Nearby.Server.create ~backend oracle ~landmarks in
    for peer = 0 to peers - 1 do
      ignore (Nearby.Server.join server ~client ~peer ~attach_router:attach.(peer))
    done;
    server
  in
  let servers = List.map (fun spec -> deploy (Eval.Backends.backend spec)) Eval.Backends.all in
  let central = List.hd servers in

  (* Same answers from every backend. *)
  List.iter
    (fun server ->
      let mismatches = ref 0 in
      for peer = 0 to peers - 1 do
        if Nearby.Server.neighbors server ~peer ~k <> Nearby.Server.neighbors central ~peer ~k
        then incr mismatches
      done;
      Format.printf "%-10s answers differing from the path tree: %d / %d peers@."
        (Nearby.Server.backend_name server)
        !mismatches peers)
    servers;

  (* Different cost models, one metrics channel. *)
  Format.printf "@.per-backend registry stats (merged across the %d landmarks):@."
    (Array.length landmarks);
  List.iter
    (fun server ->
      let stats =
        Nearby.Server.registry_stats server
        |> List.map (fun (key, v) -> Printf.sprintf "%s=%d" key v)
        |> String.concat " "
      in
      Format.printf "  %-10s %s@." (Nearby.Server.backend_name server) stats)
    servers;

  (* The DHT backend still exposes the decentralization story: lookup
     traffic on the overlay and storage spread over the ring. *)
  let dht = deploy (Dht.Registry.backend ~nodes:16 ~virtual_nodes:8 ()) in
  let stats = Nearby.Server.registry_stats dht in
  let get key = Option.value ~default:0 (List.assoc_opt key stats) in
  Format.printf "@.a 16-node ring: %d DHT lookups, %.2f overlay hops each@." (get "lookups")
    (float_of_int (get "overlay_hops") /. float_of_int (max 1 (get "lookups")))
