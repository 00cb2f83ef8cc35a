type params = {
  chunk_ms : float;
  window : int;
  startup_chunks : int;
  gossip_period_ms : float;
  requests_per_exchange : int;
  upload_slots : int;
  chunk_transfer_ms : float;
  chunk_bytes : int;
  source_fanout : int;
  policy : Scheduler.policy;
  duration_ms : float;
}

let default_params =
  {
    chunk_ms = 120.0;
    window = 64;
    startup_chunks = 8;
    gossip_period_ms = 400.0;
    requests_per_exchange = 4;
    upload_slots = 4;
    chunk_transfer_ms = 20.0;
    chunk_bytes = 15_000;
    source_fanout = 4;
    policy = Scheduler.Earliest_deadline;
    duration_ms = 60_000.0;
  }

type peer_report = {
  peer : int;
  startup_delay_ms : float;
  chunks_played : int;
  discontinuities : int;
  mean_lag_chunks : float;
}

type report = {
  peers : peer_report array;
  continuity : float;
  mean_startup_ms : float;
  started_fraction : float;
  mean_lag_chunks : float;
  messages : int;
  bytes : int;
  link_bytes : int;
  mean_chunk_latency_ms : float;
}

type peer_state = {
  id : int;
  router : Topology.Graph.node;
  joined_at : float;
  buffer : Buffer_map.t;
  mutable neighbors : int list;
  neighbor_maps : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  requested : (int, float) Hashtbl.t;
  mutable playing : bool;
  mutable play_pos : int;
  mutable started_at : float;
  mutable played : int;
  mutable skipped : int;
  lag : Prelude.Stats.t;
  mutable busy_slots : int;
  upload_queue : (int * int) Queue.t;
}

type t = {
  params : params;
  engine : Simkit.Engine.t;
  transport : Simkit.Transport.t;
  rng : Prelude.Prng.t;
  peers : (int, peer_state) Hashtbl.t;
  mutable next_id : int;
  mutable source_head : int;
  mutable source_started : bool;
  chunk_latency : Prelude.Stats.t;
}

let validate p =
  if p.chunk_ms <= 0.0 || p.gossip_period_ms <= 0.0 || p.chunk_transfer_ms < 0.0 then
    invalid_arg "Session.run: periods must be positive";
  if p.window < 1 || p.startup_chunks < 1 || p.startup_chunks > p.window then
    invalid_arg "Session.run: bad window/startup";
  if p.upload_slots < 1 || p.requests_per_exchange < 1 || p.source_fanout < 1 then
    invalid_arg "Session.run: capacities must be >= 1"

let engine t = t.engine
let peer_count t = Hashtbl.length t.peers

let emit_time t c = float_of_int c *. t.params.chunk_ms
let request_timeout t = 2.0 *. t.params.gossip_period_ms

(* --- playback -------------------------------------------------------- *)
let rec playback_tick t p () =
  let c = p.play_pos in
  if Buffer_map.has p.buffer c then p.played <- p.played + 1 else p.skipped <- p.skipped + 1;
  Prelude.Stats.add p.lag (float_of_int (max 0 (t.source_head - p.play_pos)));
  p.play_pos <- p.play_pos + 1;
  Buffer_map.advance_to p.buffer p.play_pos;
  Simkit.Engine.schedule t.engine ~delay:t.params.chunk_ms (playback_tick t p)

let maybe_start t p =
  if (not p.playing) && Buffer_map.contiguous_from_base p.buffer >= t.params.startup_chunks then begin
    p.playing <- true;
    p.started_at <- Simkit.Engine.now t.engine;
    p.play_pos <- Buffer_map.base p.buffer;
    Simkit.Engine.schedule t.engine ~delay:t.params.chunk_ms (playback_tick t p)
  end

(* --- chunk reception -------------------------------------------------- *)
let receive_chunk t p c =
  (* Keep the window anchored to the live stream even before playback. *)
  if c >= Buffer_map.base p.buffer + t.params.window then begin
    let new_base = c - t.params.window + 1 in
    if p.playing && p.play_pos < new_base then begin
      p.skipped <- p.skipped + (new_base - p.play_pos);
      p.play_pos <- new_base
    end;
    Buffer_map.advance_to p.buffer new_base
  end;
  if Buffer_map.add p.buffer c then
    Prelude.Stats.add t.chunk_latency (Simkit.Engine.now t.engine -. emit_time t c);
  Hashtbl.remove p.requested c;
  maybe_start t p

(* --- uploads ----------------------------------------------------------- *)
let rec start_upload t p (dst, c) =
  p.busy_slots <- p.busy_slots + 1;
  Simkit.Engine.schedule t.engine ~delay:t.params.chunk_transfer_ms (fun () ->
      (* Slot frees once serialization is done; propagation is pipelined. *)
      (match Hashtbl.find_opt t.peers dst with
      | Some target when Buffer_map.has p.buffer c ->
          Simkit.Transport.send ~kind:"stream_chunk" ~dir:"oneway" t.transport ~src:p.router
            ~dst:target.router ~size_bytes:t.params.chunk_bytes (fun () ->
              receive_chunk t target c)
      | Some _ | None -> ());
      p.busy_slots <- p.busy_slots - 1;
      service_queue t p)

and service_queue t p =
  if p.busy_slots < t.params.upload_slots && not (Queue.is_empty p.upload_queue) then
    start_upload t p (Queue.pop p.upload_queue)

let receive_request t p ~from c =
  if Buffer_map.has p.buffer c then begin
    if p.busy_slots < t.params.upload_slots then start_upload t p (from, c)
    else Queue.push (from, c) p.upload_queue
  end

(* --- buffer-map gossip -------------------------------------------------- *)
let neighbor_delay t p q =
  match Hashtbl.find_opt t.peers q with
  | Some target -> Simkit.Transport.one_way_delay t.transport ~src:p.router ~dst:target.router
  | None -> infinity

(* Cheapest neighbor (by one-way delay, then id) whose last-known map holds
   the chunk; the gossip sender is always a candidate. *)
let best_owner t p ~sender c =
  Hashtbl.fold
    (fun q m best ->
      if Hashtbl.mem m c then begin
        let cost = (neighbor_delay t p q, q) in
        match best with Some b when b <= cost -> best | _ -> Some cost
      end
      else best)
    p.neighbor_maps
    (Some (neighbor_delay t p sender, sender))
  |> Option.map snd

let receive_map t p ~from holdings =
  let set = Hashtbl.create (List.length holdings) in
  List.iter (fun c -> Hashtbl.replace set c ()) holdings;
  Hashtbl.replace p.neighbor_maps from set;
  let now = Simkit.Engine.now t.engine in
  let missing = Buffer_map.missing p.buffer ~upto:(t.source_head + 1) in
  let rarity c =
    Hashtbl.fold (fun _ m acc -> if Hashtbl.mem m c then acc + 1 else acc) p.neighbor_maps 0
  in
  let already_requested c =
    match Hashtbl.find_opt p.requested c with
    | Some ts -> now -. ts < request_timeout t
    | None -> false
  in
  let to_request =
    Scheduler.select t.params.policy ~missing ~neighbor_has:(Hashtbl.mem set) ~rarity
      ~already_requested ~limit:t.params.requests_per_exchange
  in
  List.iter
    (fun c ->
      Hashtbl.replace p.requested c now;
      let owner_id = match best_owner t p ~sender:from c with Some q -> q | None -> from in
      match Hashtbl.find_opt t.peers owner_id with
      | None -> ()
      | Some owner ->
          Simkit.Transport.send ~kind:"stream_request" ~dir:"oneway" t.transport ~src:p.router
            ~dst:owner.router ~size_bytes:16 (fun () -> receive_request t owner ~from:p.id c))
    to_request

let rec gossip_tick t p () =
  if Hashtbl.mem t.peers p.id then begin
    let holdings = Buffer_map.holdings p.buffer in
    List.iter
      (fun q ->
        match Hashtbl.find_opt t.peers q with
        | None -> ()
        | Some target ->
            Simkit.Transport.send ~kind:"stream_gossip" ~dir:"oneway" t.transport ~src:p.router
              ~dst:target.router ~size_bytes:(16 + (t.params.window / 8)) (fun () ->
                receive_map t target ~from:p.id holdings))
      p.neighbors;
    Simkit.Engine.schedule t.engine ~delay:t.params.gossip_period_ms (gossip_tick t p)
  end

(* --- source ------------------------------------------------------------- *)
let source_emit t source_router c =
  t.source_head <- c;
  let n = Hashtbl.length t.peers in
  if n > 0 then begin
    let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.peers [] in
    let ids = Array.of_list (List.sort compare ids) in
    let fanout = min t.params.source_fanout n in
    let picks = Prelude.Prng.sample_without_replacement t.rng ~k:fanout ~n in
    Array.iter
      (fun ix ->
        match Hashtbl.find_opt t.peers ids.(ix) with
        | None -> ()
        | Some target ->
            Simkit.Engine.schedule t.engine ~delay:t.params.chunk_transfer_ms (fun () ->
                Simkit.Transport.send ~kind:"stream_chunk" ~dir:"oneway"
                  t.transport ~src:source_router
                  ~dst:target.router ~size_bytes:t.params.chunk_bytes (fun () ->
                    receive_chunk t target c)))
      picks
  end

let create ?(params = default_params) ?latency ?engine ~graph ~source_router ~seed () =
  validate params;
  let engine = match engine with Some e -> e | None -> Simkit.Engine.create () in
  let oracle = Traceroute.Route_oracle.create graph in
  let transport = Simkit.Transport.create ?latency engine oracle in
  let t =
    {
      params;
      engine;
      transport;
      rng = Prelude.Prng.create seed;
      peers = Hashtbl.create 64;
      next_id = 0;
      source_head = -1;
      source_started = false;
      chunk_latency = Prelude.Stats.create ();
    }
  in
  (* The stream runs as long as the engine is advanced. *)
  let rec emit c () =
    source_emit t source_router c;
    Simkit.Engine.schedule_at t.engine ~time:(emit_time t (c + 1)) (emit (c + 1))
  in
  let first = max 0 (int_of_float (ceil (Simkit.Engine.now engine /. params.chunk_ms))) in
  Simkit.Engine.schedule_at t.engine ~time:(emit_time t first) (emit first);
  t.source_started <- true;
  t

let add_peer t ~router ~neighbors =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let p =
    {
      id;
      router;
      joined_at = Simkit.Engine.now t.engine;
      buffer = Buffer_map.create ~width:t.params.window;
      neighbors = [];
      neighbor_maps = Hashtbl.create 8;
      requested = Hashtbl.create 32;
      playing = false;
      play_pos = 0;
      started_at = nan;
      played = 0;
      skipped = 0;
      lag = Prelude.Stats.create ();
      busy_slots = 0;
      upload_queue = Queue.create ();
    }
  in
  (* Anchor a latecomer just behind the live edge: it buffers the startup
     run from chunks every established neighbor still holds.  Anchoring
     deeper (e.g. half a window back) would demand chunks only lagging
     peers retain - a subtle way to starve newcomers with low-lag
     (regional) neighbor sets. *)
  if t.source_head > t.params.startup_chunks then
    Buffer_map.advance_to p.buffer (t.source_head - t.params.startup_chunks);
  Hashtbl.add t.peers id p;
  (* Bidirectional mesh links to existing peers. *)
  List.iter
    (fun q ->
      match Hashtbl.find_opt t.peers q with
      | Some other when q <> id ->
          if not (List.mem q p.neighbors) then p.neighbors <- q :: p.neighbors;
          if not (List.mem id other.neighbors) then other.neighbors <- id :: other.neighbors
      | Some _ | None -> ())
    neighbors;
  Simkit.Engine.schedule t.engine
    ~delay:(Prelude.Prng.float t.rng t.params.gossip_period_ms)
    (gossip_tick t p);
  id

let link t a b =
  match (Hashtbl.find_opt t.peers a, Hashtbl.find_opt t.peers b) with
  | Some pa, Some pb when a <> b ->
      if not (List.mem b pa.neighbors) then pa.neighbors <- b :: pa.neighbors;
      if not (List.mem a pb.neighbors) then pb.neighbors <- a :: pb.neighbors
  | _ -> ()

let advance t ~until = Simkit.Engine.run ~until t.engine

let report t =
  let peer_reports =
    Hashtbl.fold
      (fun _ p acc ->
        {
          peer = p.id;
          startup_delay_ms =
            (if Float.is_nan p.started_at then nan else p.started_at -. p.joined_at);
          chunks_played = p.played;
          discontinuities = p.skipped;
          mean_lag_chunks = Prelude.Stats.mean p.lag;
        }
        :: acc)
      t.peers []
    |> List.sort (fun a b -> compare a.peer b.peer)
    |> Array.of_list
  in
  let started =
    Array.to_list peer_reports |> List.filter (fun r -> not (Float.is_nan r.startup_delay_ms))
  in
  let continuity =
    let acc = ref 0.0 and counted = ref 0 in
    Array.iter
      (fun r ->
        let total = r.chunks_played + r.discontinuities in
        if total > 0 then begin
          acc := !acc +. (float_of_int r.chunks_played /. float_of_int total);
          incr counted
        end)
      peer_reports;
    if !counted = 0 then 0.0 else !acc /. float_of_int !counted
  in
  let mean_of f rows =
    if rows = [] then nan
    else List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows)
  in
  {
    peers = peer_reports;
    continuity;
    mean_startup_ms = mean_of (fun r -> r.startup_delay_ms) started;
    started_fraction =
      (if Array.length peer_reports = 0 then 0.0
       else float_of_int (List.length started) /. float_of_int (Array.length peer_reports));
    mean_lag_chunks =
      (let s = Prelude.Stats.create () in
       Hashtbl.iter
         (fun _ p -> if Prelude.Stats.count p.lag > 0 then Prelude.Stats.add s (Prelude.Stats.mean p.lag))
         t.peers;
       Prelude.Stats.mean s);
    messages = Simkit.Transport.messages_sent t.transport;
    bytes = Simkit.Transport.bytes_sent t.transport;
    link_bytes = Simkit.Transport.link_bytes t.transport;
    mean_chunk_latency_ms = Prelude.Stats.mean t.chunk_latency;
  }

(* --- closed-session wrapper -------------------------------------------- *)

let symmetrize neighbor_sets =
  let n = Array.length neighbor_sets in
  let sets = Array.init n (fun _ -> Hashtbl.create 8) in
  Array.iteri
    (fun p partners ->
      Array.iter
        (fun q ->
          if q <> p && q >= 0 && q < n then begin
            Hashtbl.replace sets.(p) q ();
            Hashtbl.replace sets.(q) p ()
          end)
        partners)
    neighbor_sets;
  Array.map
    (fun h -> List.sort compare (Hashtbl.fold (fun q () acc -> q :: acc) h []))
    sets

let run ?(params = default_params) ?latency ~graph ~source_router ~peer_routers ~neighbor_sets
    ~seed () =
  validate params;
  let n = Array.length peer_routers in
  if Array.length neighbor_sets <> n then invalid_arg "Session.run: one neighbor set per peer";
  let t = create ~params ?latency ~graph ~source_router ~seed () in
  let symmetric = symmetrize neighbor_sets in
  (* Peers are added before any event runs, so ids match array indices and
     the symmetric links can be installed directly. *)
  Array.iteri
    (fun i router ->
      let id = add_peer t ~router ~neighbors:[] in
      assert (id = i))
    peer_routers;
  Array.iteri (fun i neighbors -> List.iter (fun q -> link t i q) neighbors) symmetric;
  advance t ~until:(params.duration_ms +. (10.0 *. params.chunk_ms));
  report t
