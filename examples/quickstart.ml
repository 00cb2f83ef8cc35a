(* Quickstart: the paper's drawing, end to end.

   Builds the exact topology of the paper's first figure, registers the four
   peers' routes in a landmark path tree, and shows why the inferred
   distance dtree(p1,p2) (through the meeting point rc) differs from the
   true shortest path d(p1,p2), yet still ranks p2 as p1's closest peer.
   Then the same flow through the full management server API. *)

let () =
  let d = Eval.Paper_drawing.build () in
  let name = Eval.Paper_drawing.name_of d in
  Format.printf "Topology from the paper's drawing: %a@.@." Topology.Graph.pp d.graph;

  (* 1. The traceroute-like tool records each peer's route to the landmark. *)
  let oracle = Traceroute.Route_oracle.create d.graph in
  let route_of src = Traceroute.Route_oracle.route oracle ~src ~dst:d.lmk in
  let show_route src =
    Format.printf "  route %s -> lmk: %s@." (name src)
      (String.concat " - " (List.map name (route_of src)))
  in
  List.iter show_route [ d.p1; d.p2; d.p3; d.p4 ];

  (* 2. Register the routes in the landmark's path tree. *)
  let tree = Nearby.Path_tree.create ~landmark:d.lmk in
  let peers = Eval.Paper_drawing.peer_attach_routers d in
  Array.iteri
    (fun peer attach -> Nearby.Path_tree.insert tree ~peer ~routers:(Array.of_list (route_of attach)))
    peers;

  (* 3. Meeting point and inferred distance for the highlighted pair. *)
  (match Nearby.Path_tree.meeting_point tree 0 1 with
  | Some (router, d1, d2) ->
      Format.printf "@.meeting point of p1 and p2: %s (p1 at %d hops, p2 at %d hops)@." (name router)
        d1 d2;
      Format.printf "dtree(p1, p2) = %d hops@." (d1 + d2)
  | None -> assert false);
  let true_d = Topology.Bfs.distance d.graph d.p1 d.p2 in
  Format.printf "true shortest path d(p1, p2) = %d hops (via the stub cross link r1 - r3)@." true_d;

  (* 4. Same thing through the protocol: each newcomer's client measures,
     the management server registers and answers. *)
  let server = Nearby.Server.create oracle ~landmarks:[| d.lmk |] in
  let client = Nearby.Client.create oracle ~landmarks:[| d.lmk |] in
  Array.iteri
    (fun peer attach_router -> ignore (Nearby.Server.join server ~client ~peer ~attach_router))
    peers;
  Format.printf "@.server reply for p1 (closest first):@.";
  List.iter
    (fun (peer, dtree) -> Format.printf "  p%d at inferred distance %d@." (peer + 1) dtree)
    (Nearby.Server.neighbors server ~peer:0 ~k:3);
  Format.printf
    "@.The inferred path overshoots (dtree = 6 > d = %d, it climbs to the meeting@.\
     point rc) - but the ranking is still right: p2 first, exactly the paper's point.@."
    true_d
