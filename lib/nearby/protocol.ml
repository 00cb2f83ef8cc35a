type t = { engine : Simkit.Engine.t; cluster : Cluster.t; rpc : Simkit.Rpc.t; client : Client.t }

let create_resilient ?client ~rpc cluster =
  if Cluster.replica_count cluster < 1 then invalid_arg "Protocol.create_resilient: empty cluster";
  let client =
    match client with
    | Some client -> client
    | None ->
        let s = Cluster.measurement_server cluster in
        Client.create (Server.oracle s) ~landmarks:(Server.landmarks s)
  in
  { engine = Simkit.Rpc.engine rpc; cluster; rpc; client }

(* A join: the newcomer pings the landmarks, with the first
   {!Client.prefix_hops} TTLs toward each, and traceroutes on toward the
   closest ({!Client.measure_join}).  Once the closest landmark has
   answered ({!Client.first_round_ms}) it ships the first hops toward it
   ({!Client.prefix}) with its neighbor request through the retrying RPC
   layer.  The replica completes the route from its landmark tree and
   answers; or, holding none of the prefix's routers, answers [Continue],
   and the client ships the whole trace in a second call as soon as its
   last answer is in (at once when it arrived during the first call).
   Retries resend the same measurement -- the client does not
   re-traceroute on a lost packet.

   One root "join" span covers the whole client-observed join; the
   measurement span, a continued join's wait for the rest of its trace,
   every RPC attempt and (through the attempt's ambient context) the
   server-side registration subtree all hang off it, so a failed-over or
   continued join is still one causal tree. *)

(* What both rounds of one join share. *)
type join = {
  p : t;
  peer : int;
  attach_router : Topology.Graph.node;
  k : int;
  span : Simkit.Span.span;
  ctx : Simkit.Span.context;
  m : Client.measurement;  (* the whole measurement ... *)
  whole_at : float;  (* ... and when its last answer is in *)
  query : string * int;  (* the neighbor request's part, sized once: every round resends it *)
  on_complete : Server.peer_info -> (int * int) list -> unit;
  on_failure : unit -> unit;
}

let finish j outcome =
  if Simkit.Span.enabled (Simkit.Rpc.spans j.p.rpc) then
    Simkit.Span.finish ~args:[ ("outcome", Simkit.Span.Str outcome) ] j.span

let reply_part j neighbors =
  let reply = Wire.Neighbor_reply { peer = j.peer; neighbors } in
  (Wire.kind reply, Wire.byte_size reply)

(* One server round: [request] and the neighbor request, to the closest
   believed-live replica, failing over per {!Cluster.target}; [handle] runs
   at the replica that receives it.  With [first], that replica heads the
   failover order while it is believed live. *)
let call ?first j request ~reply_parts ~handle ~on_reply =
  let cluster = j.p.cluster in
  Simkit.Rpc.call ~parent:j.ctx j.p.rpc ~src:j.attach_router
    ~dst:(fun ~attempt ->
      Option.map (Cluster.replica_router cluster)
        (Cluster.target ?first cluster ~src:j.attach_router ~attempt))
    ~request_parts:[ (Wire.kind request, Wire.byte_size request); j.query ]
    ~reply_parts
    ~handle:(fun ~dst ->
      match Cluster.replica_at cluster ~router:dst with None -> None | Some r -> handle r)
    ~on_reply
    ~on_give_up:(fun () ->
      finish j "gave_up";
      j.on_failure ())

let complete j info reply =
  finish j "ok";
  j.on_complete info reply

(* The continue round: the whole trace, once its last answer is in, to
   the replica that asked for it -- it was up a moment ago, where the
   closest replica may be down and not yet suspected.  The wait for the
   rest is a "rest" span, empty when the trace finished during the first
   call. *)
let continue_round j ~replica =
  let wait = Float.max 0.0 (j.whole_at -. Simkit.Engine.now j.p.engine) in
  let spans = Simkit.Rpc.spans j.p.rpc in
  if Simkit.Span.enabled spans then
    Simkit.Span.(
      emit spans ~name:"rest" ~ts:(now spans) ~dur:wait ~tid:j.peer
        ~ctx:(context spans ~parent:j.ctx ())
        [ ("peer", Int j.peer); ("full_hops", Int j.m.full_hops) ]);
  Simkit.Engine.schedule j.p.engine ~delay:wait (fun () ->
      let m = j.m in
      call ~first:replica j
        (Wire.Path_report { peer = j.peer; path = m.path })
        ~reply_parts:(fun (_, neighbors) -> [ reply_part j neighbors ])
        ~handle:(fun replica ->
          Cluster.handle_registration j.p.cluster ~replica ~peer:j.peer
            ~attach_router:j.attach_router ~measurement:m ~k:j.k)
        ~on_reply:(fun (info, reply) -> complete j info reply))

let first_round j =
  let m = j.m in
  let prefix = Client.prefix m in
  call j
    (Wire.Path_prefix { peer = j.peer; landmark = m.landmark; probes = m.probes; prefix })
    ~reply_parts:(function
      | Cluster.Registered (_, neighbors) -> [ reply_part j neighbors ]
      | Cluster.Continue _ ->
          let c = Wire.Continue { peer = j.peer } in
          [ (Wire.kind c, Wire.byte_size c) ])
    ~handle:(fun replica ->
      Cluster.handle_prefix j.p.cluster ~replica ~peer:j.peer ~attach_router:j.attach_router
        ~measurement:m ~prefix ~k:j.k)
    ~on_reply:(function
      | Cluster.Registered (info, reply) -> complete j info reply
      | Cluster.Continue { replica } -> continue_round j ~replica)

let join ?rng ?on_trace ?(on_failure = fun () -> ()) t ~peer ~attach_router ~k ~on_complete =
  let spans = Simkit.Rpc.spans t.rpc in
  let span =
    if Simkit.Span.enabled spans then
      Simkit.Span.start_span spans ~name:"join" ~tid:peer
        [ ("peer", Simkit.Span.Int peer); ("attach_router", Simkit.Span.Int attach_router) ]
    else Simkit.Span.none
  in
  let ctx = Simkit.Span.context_of span in
  (match on_trace with Some f -> f ctx | None -> ());
  let query = Wire.Neighbor_request { peer; k } in
  let m = Client.measure_join ?rng t.client ~attach_router in
  let first_ms = Client.first_round_ms t.client m in
  let j =
    {
      p = t;
      peer;
      attach_router;
      k;
      span;
      ctx;
      query = (Wire.kind query, Wire.byte_size query);
      m;
      whole_at = Simkit.Engine.now t.engine +. Client.duration_ms m;
      on_complete;
      on_failure;
    }
  in
  if Simkit.Span.enabled spans then Client.measure_span ~dur:first_ms spans ~parent:ctx ~peer m;
  Simkit.Engine.schedule t.engine ~delay:first_ms (fun () -> first_round j)

let vivaldi_setup_delay ~rounds ~round_period_ms =
  if rounds < 0 || round_period_ms < 0.0 then invalid_arg "Protocol.vivaldi_setup_delay: negative input";
  float_of_int rounds *. round_period_ms
