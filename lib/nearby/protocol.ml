type t = {
  engine : Simkit.Engine.t;
  cluster : Cluster.t;
  rpc : Simkit.Rpc.t;
  client : Client.t;
  (* [Some] of each replica's router, built once: an attempt's target
     costs no allocation of its own. *)
  targets : Topology.Graph.node option array;
}

let create_resilient ?client ~rpc cluster =
  if Cluster.replica_count cluster < 1 then invalid_arg "Protocol.create_resilient: empty cluster";
  let client =
    match client with
    | Some client -> client
    | None ->
        let s = Cluster.measurement_server cluster in
        Client.create (Server.oracle s) ~landmarks:(Server.landmarks s)
  in
  let targets =
    Array.init (Cluster.replica_count cluster) (fun i -> Some (Cluster.replica_router cluster i))
  in
  { engine = Simkit.Rpc.engine rpc; cluster; rpc; client; targets }

(* A join: the newcomer pings the landmarks, with the first
   {!Client.prefix_hops} TTLs toward each, and traceroutes on toward the
   closest ({!Client.measure_join}).  Once the closest landmark has
   answered ({!Client.first_round_ms}) it ships the first hops toward it
   ({!Client.prefix}) and the [k] it wants, one {!Wire.Path_prefix}
   frame, through the retrying RPC layer.  The replica completes the
   route from its landmark tree and answers; or, holding none of the
   prefix's routers, answers [Continue], and the client ships the whole
   trace with a neighbor request in a second call as soon as its last
   answer is in (at once when it arrived during the first call).
   Retries resend the same measurement -- the client does not
   re-traceroute on a lost packet.

   One root "join" span covers the whole client-observed join; the
   measurement span, a continued join's wait for the rest of its trace,
   every RPC attempt and (through the attempt's ambient context) the
   server-side registration subtree all hang off it, so a failed-over or
   continued join is still one causal tree.

   A join is one record; each round's RPC callbacks are closures over it
   alone, calling the top-level functions below. *)

(* What both rounds of one join share. *)
type join = {
  p : t;
  peer : int;
  attach_router : Topology.Graph.node;
  k : int;
  span : Simkit.Span.span;
  parent : Simkit.Span.context option;  (* the root span's context, when traced *)
  m : Client.measurement;  (* the whole measurement ... *)
  whole_at : float;  (* ... and when its last answer is in *)
  prefix : Topology.Graph.node array;  (* the first round's payload ... *)
  prefix_bytes : int;  (* ... and its {!Wire.Path_prefix}'s size *)
  mutable first : int option;  (* the replica a continue round goes to first *)
  on_complete : Server.peer_info -> (int * int) list -> unit;
  on_failure : unit -> unit;
}

let finish j outcome =
  if Simkit.Span.enabled (Simkit.Rpc.spans j.p.rpc) then
    Simkit.Span.finish ~args:[ ("outcome", Simkit.Span.Str outcome) ] j.span

(* The kinds of the parts a join's messages charge, fixed per message
   type. *)
let query_kind = Wire.kind (Wire.Neighbor_request { peer = 0; k = 0 })
let reply_kind = Wire.kind (Wire.Neighbor_reply { peer = 0; neighbors = [] })
let continue_kind = Wire.kind (Wire.Continue { peer = 0 })
let path_prefix_kind =
  Wire.kind (Wire.Path_prefix { peer = 0; k = 0; landmark = 0; probes = 0; prefix = [||] })

(* Attempt [attempt]'s target: the closest believed-live replica, failing
   over per {!Cluster.target}; a continue round's first choice heads the
   order while it is believed live. *)
let target j ~attempt =
  match Cluster.target ?first:j.first j.p.cluster ~src:j.attach_router ~attempt with
  | None -> None
  | Some i -> j.p.targets.(i)

let reply_parts j = function
  | Cluster.Registered { reply_bytes; _ } -> [ (reply_kind, reply_bytes) ]
  | Cluster.Continue _ -> [ (continue_kind, Wire.byte_size (Wire.Continue { peer = j.peer })) ]

let gave_up j =
  finish j "gave_up";
  j.on_failure ()

(* The server side of each round, at the replica hosted where the request
   arrived: the first round's prefix, or the continue round's whole
   trace. *)
let prefix_at j router =
  match Cluster.replica_at j.p.cluster ~router with
  | -1 -> None
  | replica ->
      Cluster.handle_prefix j.p.cluster ~replica ~peer:j.peer ~attach_router:j.attach_router
        ~measurement:j.m ~prefix:j.prefix ~bytes:j.prefix_bytes ~k:j.k

let rest_at j router =
  match Cluster.replica_at j.p.cluster ~router with
  | -1 -> None
  | replica ->
      Cluster.handle_registration j.p.cluster ~replica ~peer:j.peer
        ~attach_router:j.attach_router ~measurement:j.m ~k:j.k

(* One server round: [request_parts], which carry the neighbor request,
   to the closest believed-live replica; [handle] runs at the router the
   request reaches. *)
let call j ~request_parts ~handle ~on_reply =
  Simkit.Rpc.call ?parent:j.parent j.p.rpc ~src:j.attach_router
    ~dst:(fun ~attempt -> target j ~attempt)
    ~request_parts ~reply_parts:(fun a -> reply_parts j a) ~handle ~on_reply
    ~on_give_up:(fun () -> gave_up j)

let rec answered j = function
  | Cluster.Registered { info; neighbors; _ } ->
      finish j "ok";
      j.on_complete info neighbors
  | Cluster.Continue { replica } -> continue_round j ~replica

(* The continue round: the whole trace, once its last answer is in, to
   the replica that asked for it -- it was up a moment ago, where the
   closest replica may be down and not yet suspected.  The wait for the
   rest is a "rest" span, empty when the trace finished during the first
   call. *)
and continue_round j ~replica =
  let wait = Float.max 0.0 (j.whole_at -. Simkit.Engine.now j.p.engine) in
  let spans = Simkit.Rpc.spans j.p.rpc in
  if Simkit.Span.enabled spans then
    Simkit.Span.(
      emit spans ~name:"rest" ~ts:(now spans) ~dur:wait ~tid:j.peer
        ~ctx:(context spans ?parent:j.parent ())
        [ ("peer", Int j.peer); ("full_hops", Int j.m.full_hops) ]);
  j.first <- Some replica;
  Simkit.Engine.schedule j.p.engine ~delay:wait (fun () -> rest_round j)

and rest_round j =
  let report = Wire.Path_report { peer = j.peer; path = j.m.path } in
  call j
    ~request_parts:
      [
        (Wire.kind report, Wire.byte_size report);
        (query_kind, Wire.neighbor_request_size ~peer:j.peer ~k:j.k);
      ]
    ~handle:(fun ~dst -> rest_at j dst)
    ~on_reply:(fun a -> answered j a)

let first_round j =
  call j
    ~request_parts:[ (path_prefix_kind, j.prefix_bytes) ]
    ~handle:(fun ~dst -> prefix_at j dst)
    ~on_reply:(fun a -> answered j a)

let join ?rng ?on_trace ?(on_failure = fun () -> ()) t ~peer ~attach_router ~k ~on_complete =
  let spans = Simkit.Rpc.spans t.rpc in
  let traced = Simkit.Span.enabled spans in
  let span =
    if traced then
      Simkit.Span.start_span spans ~name:"join" ~tid:peer
        [ ("peer", Simkit.Span.Int peer); ("attach_router", Simkit.Span.Int attach_router) ]
    else Simkit.Span.none
  in
  let ctx = Simkit.Span.context_of span in
  (match on_trace with Some f -> f ctx | None -> ());
  let m = Client.measure_join ?rng t.client ~attach_router in
  let first_ms = Client.first_round_ms t.client m in
  let prefix = Client.prefix m in
  let j =
    {
      p = t;
      peer;
      attach_router;
      k;
      span;
      parent = (if traced then Some ctx else None);
      m;
      whole_at = Simkit.Engine.now t.engine +. Client.duration_ms m;
      prefix;
      prefix_bytes =
        Wire.byte_size
          (Wire.Path_prefix { peer; k; landmark = m.landmark; probes = m.probes; prefix });
      first = None;
      on_complete;
      on_failure;
    }
  in
  if traced then Client.measure_span ~dur:first_ms spans ~parent:ctx ~peer m;
  Simkit.Engine.schedule t.engine ~delay:first_ms (fun () -> first_round j)

let vivaldi_setup_delay ~rounds ~round_period_ms =
  if rounds < 0 || round_period_ms < 0.0 then invalid_arg "Protocol.vivaldi_setup_delay: negative input";
  float_of_int rounds *. round_period_ms
