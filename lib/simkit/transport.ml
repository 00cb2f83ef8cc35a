(* The [wire_bytes_total] / [wire_msgs_total] cells of one (kind, dir)
   pair (private without a registry) and its kind's [wire_bytes:<kind>]
   window series, resolved at its first frame. *)
type wire_cells = {
  kind : string;
  dir : string;
  bytes : int ref;
  msgs : int ref;
  series : Timeseries.series option;
}

(* A drop bucket's messages and bytes: with a registry, its
   [wire_dropped_msgs_total] / [wire_dropped_bytes_total] series, bound at
   its first drop. *)
type bucket = { reason : string; msgs : int ref; bytes : int ref }

type talker = {
  node : Topology.Graph.node;
  sent_bytes : int;
  recv_bytes : int;
  sent_msgs : int;
  recv_msgs : int;
}

type t = {
  engine : Engine.t;
  oracle : Traceroute.Route_oracle.t;
  latency : Topology.Latency.t option;
  rng : Prelude.Prng.t option;
  mutable loss_prob : float;
  mutable partition : (Topology.Graph.node, unit) Hashtbl.t option;
  mutable messages : int;
  mutable bytes : int;
  mutable link_bytes : int;
  loss : bucket;
  unreachable : bucket;
  partition_drops : bucket;
  delay : float array;  (* one cell: the delay the last route walk found *)
  metrics : Metrics.t option;
  timeseries : Timeseries.t option;
  mutable wire_cells : wire_cells list;
  wire_series : Timeseries.series option;  (* [wire_bytes] *)
  (* Per-endpoint tallies, indexed by graph node: endpoints are nodes, so
     a delivery bumps four array cells instead of probing a table. *)
  out_bytes : int array;
  in_bytes : int array;
  out_msgs : int array;
  in_msgs : int array;
  mutable endpoints : int;  (* nodes with at least one message tallied *)
}

let check_loss_prob ~who ~rng loss_prob =
  if loss_prob < 0.0 || loss_prob >= 1.0 then
    invalid_arg (who ^ ": loss_prob outside [0, 1)");
  if loss_prob > 0.0 && rng = None then invalid_arg (who ^ ": loss_prob needs ~rng")

let bucket reason = { reason; msgs = ref 0; bytes = ref 0 }

let create ?latency ?rng ?(loss_prob = 0.0) ?metrics ?timeseries engine oracle =
  check_loss_prob ~who:"Transport.create" ~rng loss_prob;
  let nodes = Topology.Graph.node_count (Traceroute.Route_oracle.graph oracle) in
  {
    engine;
    oracle;
    latency;
    rng;
    loss_prob;
    partition = None;
    messages = 0;
    bytes = 0;
    link_bytes = 0;
    loss = bucket "loss";
    unreachable = bucket "unreachable";
    partition_drops = bucket "partition";
    delay = [| 0.0 |];
    metrics;
    timeseries;
    wire_cells = [];
    wire_series = Option.map (fun ts -> Timeseries.series ts "wire_bytes") timeseries;
    out_bytes = Array.make nodes 0;
    in_bytes = Array.make nodes 0;
    out_msgs = Array.make nodes 0;
    in_msgs = Array.make nodes 0;
    endpoints = 0;
  }

let engine t = t.engine

let set_loss_prob t loss_prob =
  check_loss_prob ~who:"Transport.set_loss_prob" ~rng:t.rng loss_prob;
  t.loss_prob <- loss_prob

let loss_prob t = t.loss_prob

let set_partition_nodes t nodes =
  let cut = Hashtbl.create (List.length nodes) in
  List.iter (fun node -> Hashtbl.replace cut node ()) nodes;
  t.partition <- Some cut

let clear_partition t = t.partition <- None

let partitioned t ~src ~dst =
  match t.partition with
  | None -> false
  | Some cut -> Hashtbl.mem cut src <> Hashtbl.mem cut dst

(* One walk of the route: its link count ([max_int] when unreachable),
   with the one-way delay left in [t.delay] — 1 ms a link, or the latency
   table's sum over the routers walked. *)
let walk t ~src ~dst =
  match t.latency with
  | None ->
      let hops = Traceroute.Route_oracle.route_length t.oracle ~src ~dst in
      t.delay.(0) <- float_of_int hops;
      hops
  | Some table -> (
      match Traceroute.Route_oracle.route_array t.oracle ~src ~dst with
      | [||] -> max_int
      | routers ->
          t.delay.(0) <- Topology.Latency.path_latency table routers;
          Array.length routers - 1)

let one_way_delay t ~src ~dst = if walk t ~src ~dst = max_int then infinity else t.delay.(0)

let one_way_delay_into t ~src ~dst cells i =
  cells.(i) <- (if walk t ~src ~dst = max_int then infinity else t.delay.(0))

(* Inlined, so the delay reaches [Engine.schedule] boxed once. *)
let[@inline] jitter t delay =
  match t.rng with
  | None -> delay
  | Some rng -> delay *. (1.0 +. (0.05 *. (Prelude.Prng.unit_float rng -. 0.5) *. 2.0))

let lost t =
  t.loss_prob > 0.0
  && match t.rng with Some rng -> Prelude.Prng.unit_float rng < t.loss_prob | None -> false

let parts_total parts = List.fold_left (fun acc (_, b) -> acc + b) 0 parts

(* Count [node] as an endpoint before its first tallied message. *)
let touch t node =
  if t.out_msgs.(node) = 0 && t.in_msgs.(node) = 0 then t.endpoints <- t.endpoints + 1

let rec wire_cells t ~kind ~dir = function
  | c :: _ when String.equal c.kind kind && String.equal c.dir dir -> c
  | _ :: rest -> wire_cells t ~kind ~dir rest
  | [] ->
      let labels = [ ("kind", kind); ("dir", dir) ] in
      let counter name =
        match t.metrics with Some m -> Metrics.counter_ref m name ~labels | None -> ref 0
      in
      let bytes = counter "wire_bytes_total" in
      let series =
        Option.map (fun ts -> Timeseries.series ts ("wire_bytes:" ^ kind)) t.timeseries
      in
      let c = { kind; dir; bytes; msgs = counter "wire_msgs_total"; series } in
      t.wire_cells <- c :: t.wire_cells;
      c

let observe t series ~now bytes =
  match (t.timeseries, series) with
  | Some ts, Some s -> Timeseries.observe_series ts s ~now (float_of_int bytes)
  | _ -> ()

(* One part of a delivered message, at [now] on the window clock. *)
let count_part t ~now ~dir ~kind bytes =
  let c = wire_cells t ~kind ~dir t.wire_cells in
  c.bytes := !(c.bytes) + bytes;
  incr c.msgs;
  observe t c.series ~now bytes

let rec count_parts t ~now ~dir = function
  | [] -> ()
  | (kind, bytes) :: rest ->
      count_part t ~now ~dir ~kind bytes;
      count_parts t ~now ~dir rest

let account_drop t b ~total =
  (match t.metrics with
  | Some m when !(b.msgs) = 0 ->
      let labels = [ ("reason", b.reason) ] in
      Metrics.bind_counter m "wire_dropped_bytes_total" ~labels b.bytes;
      Metrics.bind_counter m "wire_dropped_msgs_total" ~labels b.msgs
  | _ -> ());
  b.bytes := !(b.bytes) + total;
  incr b.msgs

(* One delivered message over a route of [hops] links: whole-run counters
   and per-endpoint tallies. *)
let account_delivered t ~src ~dst ~total ~hops =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + total;
  if hops <> max_int then t.link_bytes <- t.link_bytes + (total * hops);
  touch t src;
  t.out_bytes.(src) <- t.out_bytes.(src) + total;
  t.out_msgs.(src) <- t.out_msgs.(src) + 1;
  touch t dst;
  t.in_bytes.(dst) <- t.in_bytes.(dst) + total;
  t.in_msgs.(dst) <- t.in_msgs.(dst) + 1

(* The window clock of a delivered message of [total] bytes, counted in
   [wire_bytes]; 0 without a timeseries. *)
let observe_total t ~total =
  if Option.is_none t.timeseries then 0.0
  else begin
    let now = Engine.now t.engine in
    observe t t.wire_series ~now total;
    now
  end

(* The dimensional view of a delivered message: each [(kind, bytes)] part
   feeds its own labeled series, so one frame carrying a report and a
   query splits cleanly by kind while counting once in [messages_sent].
   A one-part message is labeled without building a part list. *)
let label_part t ~dir ~kind bytes =
  match (t.metrics, t.timeseries) with
  | None, None -> ()
  | _ -> count_part t ~now:(observe_total t ~total:bytes) ~dir ~kind bytes

let label_parts t ~dir ~total parts =
  match (t.metrics, t.timeseries) with
  | None, None -> ()
  | _ -> count_parts t ~now:(observe_total t ~total) ~dir parts

(* Route a message of [total] bytes: count it into its drop bucket, or
   count it delivered and say so. *)
let routed t ~src ~dst ~total =
  let hops = walk t ~src ~dst in
  if hops = max_int then (account_drop t t.unreachable ~total; false)
  else if partitioned t ~src ~dst then (account_drop t t.partition_drops ~total; false)
  else if lost t then (account_drop t t.loss ~total; false)
  else (account_delivered t ~src ~dst ~total ~hops; true)

(* Deliver after the delay the route walk left in [t.delay]. *)
let deliver t handler = Engine.schedule t.engine ~delay:(jitter t t.delay.(0)) handler

let send_parts ~dir t ~src ~dst ~parts handler =
  let total = parts_total parts in
  if routed t ~src ~dst ~total then begin
    label_parts t ~dir ~total parts;
    deliver t handler
  end

let send ~kind ~dir t ~src ~dst ~size_bytes handler =
  if routed t ~src ~dst ~total:size_bytes then begin
    label_part t ~dir ~kind size_bytes;
    deliver t handler
  end

let charge ~kind ~dir t ~src ~dst ~size_bytes =
  account_delivered t ~src ~dst ~total:size_bytes
    ~hops:(Traceroute.Route_oracle.route_length t.oracle ~src ~dst);
  label_part t ~dir ~kind size_bytes

let messages_sent t = t.messages
let link_bytes t = t.link_bytes
let bytes_sent t = t.bytes
let dropped_loss t = !(t.loss.msgs)
let messages_dropped t = !(t.loss.msgs) + !(t.unreachable.msgs) + !(t.partition_drops.msgs)
let dropped_loss_bytes t = !(t.loss.bytes)
let dropped_unreachable_bytes t = !(t.unreachable.bytes)
let dropped_partition_bytes t = !(t.partition_drops.bytes)

let bytes_dropped t =
  dropped_loss_bytes t + dropped_unreachable_bytes t + dropped_partition_bytes t

let endpoint_count t = t.endpoints

let top_talkers t ~k =
  if k < 0 then invalid_arg "Transport.top_talkers: negative k";
  let all = ref [] in
  for node = Array.length t.out_msgs - 1 downto 0 do
    if t.out_msgs.(node) > 0 || t.in_msgs.(node) > 0 then
      all :=
        {
          node;
          sent_bytes = t.out_bytes.(node);
          recv_bytes = t.in_bytes.(node);
          sent_msgs = t.out_msgs.(node);
          recv_msgs = t.in_msgs.(node);
        }
        :: !all
  done;
  let volume tk = tk.sent_bytes + tk.recv_bytes in
  let sorted =
    List.sort
      (fun a b ->
        match compare (volume b) (volume a) with 0 -> compare a.node b.node | c -> c)
      !all
  in
  List.filteri (fun i _ -> i < k) sorted

let stats t =
  [
    ("messages", t.messages);
    ("bytes", t.bytes);
    ("link_bytes", t.link_bytes);
    ("dropped_loss", !(t.loss.msgs));
    ("dropped_unreachable", !(t.unreachable.msgs));
    ("dropped_partition", !(t.partition_drops.msgs));
    ("dropped_loss_bytes", !(t.loss.bytes));
    ("dropped_unreachable_bytes", !(t.unreachable.bytes));
    ("dropped_partition_bytes", !(t.partition_drops.bytes));
  ]
