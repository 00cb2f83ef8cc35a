type config = {
  heartbeat_period_ms : float;
  timeout_ms : float;
  heartbeat_bytes : int;
}

let default_config = { heartbeat_period_ms = 1_000.0; timeout_ms = 3_500.0; heartbeat_bytes = 32 }

type watch_state = {
  router : Topology.Graph.node;
  mutable last_seen : float;
  mutable suspected : bool;
  mutable active : bool;  (* false after unwatch: stops both loops *)
}

type t = {
  config : config;
  transport : Transport.t;
  monitor_router : Topology.Graph.node;
  on_failure : int -> unit;
  watches : (int, watch_state) Hashtbl.t;
  mutable suspicions : int;
}

let create config ~transport ~monitor_router ~on_failure =
  if config.heartbeat_period_ms <= 0.0 || config.timeout_ms <= config.heartbeat_period_ms then
    invalid_arg "Failure_detector.create: need 0 < period < timeout";
  {
    config;
    transport;
    monitor_router;
    on_failure;
    watches = Hashtbl.create 64;
    suspicions = 0;
  }

let engine t = Transport.engine t.transport
let is_watched t ~peer = Hashtbl.mem t.watches peer

let is_suspected t ~peer =
  match Hashtbl.find_opt t.watches peer with Some w -> w.suspected | None -> false

let watched_count t = Hashtbl.length t.watches
let suspicions t = t.suspicions

let suspect t peer w =
  if w.active && not w.suspected then begin
    w.suspected <- true;
    t.suspicions <- t.suspicions + 1;
    t.on_failure peer
  end

(* Monitor side: re-check [timeout] after the latest heartbeat; a fresh
   heartbeat re-arms the next check implicitly because the check compares
   against last_seen.  The timeout test MUST use the same float expression
   as the scheduling ([last_seen +. timeout]): testing
   [now -. last_seen >= timeout] instead can disagree with it by one ulp
   and livelock on zero-delay reschedules. *)
let rec schedule_check t peer w =
  let deadline = w.last_seen +. t.config.timeout_ms in
  let delay = Float.max 0.0 (deadline -. Engine.now (engine t)) in
  Engine.schedule (engine t) ~delay (fun () ->
      if w.active && not w.suspected then begin
        if Engine.now (engine t) >= w.last_seen +. t.config.timeout_ms then suspect t peer w
        else schedule_check t peer w
      end)

let rec heartbeat_loop t peer w ~alive =
  if w.active && alive () then begin
    Transport.send ~kind:"fd_probe" ~dir:"oneway" t.transport ~src:w.router ~dst:t.monitor_router
      ~size_bytes:t.config.heartbeat_bytes (fun () ->
        if w.active then w.last_seen <- Engine.now (engine t));
    Engine.schedule (engine t) ~delay:t.config.heartbeat_period_ms (fun () ->
        heartbeat_loop t peer w ~alive)
  end

let watch t ~peer ~router ~alive =
  if Hashtbl.mem t.watches peer then invalid_arg "Failure_detector.watch: already watched";
  let w = { router; last_seen = Engine.now (engine t); suspected = false; active = true } in
  Hashtbl.add t.watches peer w;
  heartbeat_loop t peer w ~alive;
  schedule_check t peer w

let unwatch t ~peer =
  match Hashtbl.find_opt t.watches peer with
  | None -> ()
  | Some w ->
      w.active <- false;
      Hashtbl.remove t.watches peer
