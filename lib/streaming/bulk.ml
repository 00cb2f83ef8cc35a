type params = {
  chunks : int;
  gossip_period_ms : float;
  requests_per_exchange : int;
  upload_slots : int;
  chunk_transfer_ms : float;
  chunk_bytes : int;
  seed_fanout : int;
  max_time_ms : float;
}

let default_params =
  {
    chunks = 64;
    gossip_period_ms = 400.0;
    requests_per_exchange = 4;
    upload_slots = 4;
    chunk_transfer_ms = 20.0;
    chunk_bytes = 15_000;
    seed_fanout = 4;
    max_time_ms = 60_000.0;
  }

type report = {
  completed_fraction : float;
  mean_completion_ms : float;
  p95_completion_ms : float;
  messages : int;
  bytes : int;
  link_bytes : int;
}

type peer_state = {
  id : int;
  router : Topology.Graph.node;
  bitfield : Buffer_map.t;  (* base stays 0; width = chunks *)
  mutable neighbors : int array;
  neighbor_fields : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  requested : (int, float) Hashtbl.t;
  mutable completed_at : float;
  mutable busy_slots : int;
  upload_queue : (int * int) Queue.t;
}

let validate p =
  if p.chunks < 1 || p.gossip_period_ms <= 0.0 || p.max_time_ms <= 0.0 then
    invalid_arg "Bulk.run: bad parameters";
  if p.upload_slots < 1 || p.requests_per_exchange < 1 || p.seed_fanout < 1 then
    invalid_arg "Bulk.run: capacities must be >= 1"

let run ?(params = default_params) ?latency ~graph ~seed_router ~peer_routers ~neighbor_sets ~seed
    () =
  validate params;
  let n = Array.length peer_routers in
  if Array.length neighbor_sets <> n then invalid_arg "Bulk.run: one neighbor set per peer";
  let rng = Prelude.Prng.create seed in
  let engine = Simkit.Engine.create () in
  let oracle = Traceroute.Route_oracle.create graph in
  let transport = Simkit.Transport.create ?latency engine oracle in
  (* Symmetrize the mesh, as in Session. *)
  let sym = Array.init n (fun _ -> Hashtbl.create 8) in
  Array.iteri
    (fun p partners ->
      Array.iter
        (fun q ->
          if q <> p && q >= 0 && q < n then begin
            Hashtbl.replace sym.(p) q ();
            Hashtbl.replace sym.(q) p ()
          end)
        partners)
    neighbor_sets;
  let peers =
    Array.init n (fun id ->
        {
          id;
          router = peer_routers.(id);
          bitfield = Buffer_map.create ~width:params.chunks;
          neighbors =
            Array.of_list (List.sort compare (Hashtbl.fold (fun q () acc -> q :: acc) sym.(id) []));
          neighbor_fields = Hashtbl.create 8;
          requested = Hashtbl.create 32;
          completed_at = nan;
          busy_slots = 0;
          upload_queue = Queue.create ();
        })
  in
  let request_timeout = 2.0 *. params.gossip_period_ms in

  let receive_chunk p c =
    if Buffer_map.add p.bitfield c then begin
      Hashtbl.remove p.requested c;
      if Float.is_nan p.completed_at && Buffer_map.count p.bitfield = params.chunks then
        p.completed_at <- Simkit.Engine.now engine
    end
  in
  let rec start_upload p (dst, c) =
    p.busy_slots <- p.busy_slots + 1;
    Simkit.Engine.schedule engine ~delay:params.chunk_transfer_ms (fun () ->
        let target = peers.(dst) in
        if Buffer_map.has p.bitfield c then
          Simkit.Transport.send ~kind:"bulk_chunk" ~dir:"oneway"
            transport ~src:p.router ~dst:target.router
            ~size_bytes:params.chunk_bytes (fun () -> receive_chunk target c);
        p.busy_slots <- p.busy_slots - 1;
        service_queue p)
  and service_queue p =
    if p.busy_slots < params.upload_slots && not (Queue.is_empty p.upload_queue) then
      start_upload p (Queue.pop p.upload_queue)
  in
  let receive_request p ~from c =
    if Buffer_map.has p.bitfield c then begin
      if p.busy_slots < params.upload_slots then start_upload p (from, c)
      else Queue.push (from, c) p.upload_queue
    end
  in
  let receive_field p ~from holdings =
    let set = Hashtbl.create (List.length holdings) in
    List.iter (fun c -> Hashtbl.replace set c ()) holdings;
    Hashtbl.replace p.neighbor_fields from set;
    let now = Simkit.Engine.now engine in
    let missing = Buffer_map.missing p.bitfield ~upto:params.chunks in
    let rarity c =
      Hashtbl.fold (fun _ m acc -> if Hashtbl.mem m c then acc + 1 else acc) p.neighbor_fields 0
    in
    let already_requested c =
      match Hashtbl.find_opt p.requested c with
      | Some t -> now -. t < request_timeout
      | None -> false
    in
    let to_request =
      Scheduler.select Scheduler.Rarest_first ~missing ~neighbor_has:(Hashtbl.mem set) ~rarity
        ~already_requested ~limit:params.requests_per_exchange
    in
    List.iter
      (fun c ->
        Hashtbl.replace p.requested c now;
        let owner = peers.(from) in
        Simkit.Transport.send ~kind:"bulk_request" ~dir:"oneway"
          transport ~src:p.router ~dst:owner.router
          ~size_bytes:16 (fun () -> receive_request owner ~from:p.id c))
      to_request
  in
  let rec gossip_tick p () =
    if Simkit.Engine.now engine < params.max_time_ms then begin
      let holdings = Buffer_map.holdings p.bitfield in
      Array.iter
        (fun q ->
          let target = peers.(q) in
          Simkit.Transport.send ~kind:"bulk_gossip" ~dir:"oneway"
            transport ~src:p.router ~dst:target.router
            ~size_bytes:(16 + (params.chunks / 8)) (fun () ->
              receive_field target ~from:p.id holdings))
        p.neighbors;
      Simkit.Engine.schedule engine ~delay:params.gossip_period_ms (gossip_tick p)
    end
  in
  (* The seed pushes every piece to a few random peers at t=0 (staggered by
     serialization time), then peers pull from each other. *)
  for c = 0 to params.chunks - 1 do
    let fanout = min params.seed_fanout n in
    let targets = Prelude.Prng.sample_without_replacement rng ~k:fanout ~n in
    Array.iter
      (fun pid ->
        let target = peers.(pid) in
        Simkit.Engine.schedule engine
          ~delay:(float_of_int c *. params.chunk_transfer_ms)
          (fun () ->
            Simkit.Transport.send ~kind:"bulk_chunk" ~dir:"oneway" transport ~src:seed_router
              ~dst:target.router ~size_bytes:params.chunk_bytes (fun () ->
                receive_chunk target c)))
      targets
  done;
  Array.iter
    (fun p ->
      Simkit.Engine.schedule engine ~delay:(Prelude.Prng.float rng params.gossip_period_ms)
        (gossip_tick p))
    peers;
  Simkit.Engine.run ~until:params.max_time_ms engine;
  let completions =
    Array.to_list peers
    |> List.filter_map (fun p -> if Float.is_nan p.completed_at then None else Some p.completed_at)
  in
  let completion_array = Array.of_list completions in
  {
    completed_fraction = float_of_int (List.length completions) /. float_of_int (max 1 n);
    mean_completion_ms = Prelude.Stats.mean_of completion_array;
    p95_completion_ms =
      (if Array.length completion_array = 0 then nan
       else Prelude.Stats.percentile completion_array 95.0);
    messages = Simkit.Transport.messages_sent transport;
    bytes = Simkit.Transport.bytes_sent transport;
    link_bytes = Simkit.Transport.link_bytes transport;
  }
