(* Bring your own Internet map.

   The reproduction runs on synthetic Magoni-style maps, but everything
   downstream only needs a Topology.Graph.t - so a real measured router
   map (nem, Rocketfuel, CAIDA exports...) can be dropped in as an edge
   list.  This example round-trips a map through the edge-list format,
   verifies the reload is identical, and runs the discovery pipeline on
   the loaded copy. *)

let () =
  (* 1. Pretend this is your measured map: save one to disk. *)
  let original = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 1000) ~seed:9 in
  let path = Filename.temp_file "router_map" ".edges" in
  Topology.Io.save_edge_list original.graph path;
  Format.printf "wrote %a@.  -> %s@." Topology.Graph.pp original.graph path;

  (* 2. Load it back; same graph.  (compact:false keeps the original ids;
     the default renumbers densely in first-appearance order, which is what
     you want for datasets with sparse id spaces.) *)
  let graph = Topology.Io.load_edge_list ~compact:false path in
  assert (Topology.Graph.edges graph = Topology.Graph.edges original.graph);
  Format.printf "reloaded identically: %d nodes, %d edges@." (Topology.Graph.node_count graph)
    (Topology.Graph.edge_count graph);

  (* 3. Run discovery on the loaded map: place landmarks, join peers, ask
     for neighbors. *)
  let rng = Prelude.Prng.create 9 in
  let landmarks = Nearby.Landmark.place graph Nearby.Landmark.Spread ~count:4 ~rng in
  let oracle = Traceroute.Route_oracle.create graph in
  let server = Nearby.Server.create oracle ~landmarks in
  let client = Nearby.Client.create oracle ~landmarks in
  let leaves = Array.of_list (Topology.Graph.nodes_with_degree graph 1) in
  Format.printf "landmarks on routers: %s; %d degree-1 attachment routers@."
    (String.concat ", " (Array.to_list (Array.map string_of_int landmarks)))
    (Array.length leaves);
  let peer_count = min 100 (Array.length leaves) in
  for peer = 0 to peer_count - 1 do
    ignore (Nearby.Server.join server ~client ~peer ~attach_router:leaves.(peer))
  done;
  let reply = Nearby.Server.neighbors server ~peer:0 ~k:5 in
  Format.printf "peer 0's neighbors (peer, inferred distance): %s@."
    (String.concat "; " (List.map (fun (p, d) -> Printf.sprintf "(%d, %d)" p d) reply));

  (* 4. Export a small illustration with the landmarks highlighted. *)
  let drawing = Eval.Paper_drawing.build () in
  let dot = Topology.Io.to_dot ~highlight:[ drawing.lmk ] drawing.graph in
  let dot_path = Filename.temp_file "drawing" ".dot" in
  let oc = open_out dot_path in
  output_string oc dot;
  close_out oc;
  Format.printf "paper drawing exported as Graphviz: %s@." dot_path;
  Sys.remove path
