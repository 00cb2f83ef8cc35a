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

(* A join: the newcomer measures locally, waits out the measurement
   ({!Client.duration_ms}), then ships the recorded path to the
   cluster through the retrying RPC layer.  Retries resend the same
   measurement — the client does not re-traceroute on a lost packet.

   One root "join" span covers the whole client-observed join; the
   measurement, every RPC attempt and (through the attempt's ambient
   context) the server-side registration subtree all hang off it, so a
   failed-over join is still one causal tree. *)
let join ?rng ?on_trace ?(on_failure = fun () -> ()) t ~peer ~attach_router ~k ~on_complete =
  let rpc = t.rpc in
  let spans = Simkit.Rpc.spans rpc in
  let traced = Simkit.Span.enabled spans in
  let join_span =
    if traced then
      Simkit.Span.start_span spans ~name:"join" ~tid:peer
        [ ("peer", Simkit.Span.Int peer); ("attach_router", Simkit.Span.Int attach_router) ]
    else Simkit.Span.none
  in
  let join_ctx = Simkit.Span.context_of join_span in
  (match on_trace with Some f -> f join_ctx | None -> ());
  let measurement = Client.measure ?rng t.client ~attach_router in
  Client.measure_span spans ~parent:join_ctx ~peer measurement;
  (* Each part is sized once: the retries resend these bytes. *)
  let report = Wire.Path_report { peer; path = measurement.path } in
  let query = Wire.Neighbor_request { peer; k } in
  let request_parts =
    [ (Wire.kind report, Wire.byte_size report); (Wire.kind query, Wire.byte_size query) ]
  in
  let reply_parts (_, neighbors) =
    let reply = Wire.Neighbor_reply { peer; neighbors } in
    [ (Wire.kind reply, Wire.byte_size reply) ]
  in
  let finish outcome =
    if traced then Simkit.Span.finish ~args:[ ("outcome", Simkit.Span.Str outcome) ] join_span
  in
  Simkit.Engine.schedule t.engine ~delay:(Client.duration_ms measurement) (fun () ->
      Simkit.Rpc.call ~parent:join_ctx rpc ~src:attach_router
        ~dst:(fun ~attempt ->
          match Cluster.target t.cluster ~src:attach_router ~attempt with
          | Some replica -> Some (Cluster.replica_router t.cluster replica)
          | None -> None)
        ~request_parts ~reply_parts
        ~handle:(fun ~dst ->
          match Cluster.replica_at t.cluster ~router:dst with
          | None -> None
          | Some replica ->
              Cluster.handle_registration t.cluster ~replica ~peer ~attach_router ~measurement ~k)
        ~on_reply:(fun (info, reply) ->
          finish "ok";
          on_complete info reply)
        ~on_give_up:(fun () ->
          finish "gave_up";
          on_failure ()))

let vivaldi_setup_delay ~rounds ~round_period_ms =
  if rounds < 0 || round_period_ms < 0.0 then invalid_arg "Protocol.vivaldi_setup_delay: negative input";
  float_of_int rounds *. round_period_ms
