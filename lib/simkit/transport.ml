(* The [wire_bytes_total] / [wire_msgs_total] cells of one (kind, dir)
   pair, resolved at its first frame. *)
type wire_cells = { kind : string; dir : string; bytes : int ref; msgs : int ref }

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
  mutable dropped_loss : int;
  mutable dropped_unreachable : int;
  mutable dropped_partition : int;
  mutable dropped_loss_bytes : int;
  mutable dropped_unreachable_bytes : int;
  mutable dropped_partition_bytes : int;
  delay : float array;  (* one cell: the delay the last route walk found *)
  mutable metrics : Metrics.t option;
  mutable wire_cells : wire_cells list;
  mutable timeseries : Timeseries.t option;
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
    dropped_loss = 0;
    dropped_unreachable = 0;
    dropped_partition = 0;
    dropped_loss_bytes = 0;
    dropped_unreachable_bytes = 0;
    dropped_partition_bytes = 0;
    delay = [| 0.0 |];
    metrics;
    wire_cells = [];
    timeseries;
    out_bytes = Array.make nodes 0;
    in_bytes = Array.make nodes 0;
    out_msgs = Array.make nodes 0;
    in_msgs = Array.make nodes 0;
    endpoints = 0;
  }

let engine t = t.engine

let set_wire_sinks ?metrics ?timeseries t =
  if Option.is_some metrics then (t.metrics <- metrics; t.wire_cells <- []);
  match timeseries with Some _ -> t.timeseries <- timeseries | None -> ()

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

let rec wire_cells t m ~kind ~dir = function
  | c :: _ when String.equal c.kind kind && String.equal c.dir dir -> c
  | _ :: rest -> wire_cells t m ~kind ~dir rest
  | [] ->
      let labels = [ ("kind", kind); ("dir", dir) ] in
      let bytes = Metrics.counter_ref m "wire_bytes_total" ~labels in
      let c = { kind; dir; bytes; msgs = Metrics.counter_ref m "wire_msgs_total" ~labels } in
      t.wire_cells <- c :: t.wire_cells;
      c

let count_part t m ~dir ~kind bytes =
  let c = wire_cells t m ~kind ~dir t.wire_cells in
  c.bytes := !(c.bytes) + bytes;
  incr c.msgs

let rec count_parts t m ~dir = function
  | [] -> ()
  | (kind, bytes) :: rest ->
      count_part t m ~dir ~kind bytes;
      count_parts t m ~dir rest

let account_drop t ~reason ~total =
  (match reason with
  | `Loss ->
      t.dropped_loss <- t.dropped_loss + 1;
      t.dropped_loss_bytes <- t.dropped_loss_bytes + total
  | `Unreachable ->
      t.dropped_unreachable <- t.dropped_unreachable + 1;
      t.dropped_unreachable_bytes <- t.dropped_unreachable_bytes + total
  | `Partition ->
      t.dropped_partition <- t.dropped_partition + 1;
      t.dropped_partition_bytes <- t.dropped_partition_bytes + total);
  match t.metrics with
  | None -> ()
  | Some m ->
      let reason =
        match reason with
        | `Loss -> "loss"
        | `Unreachable -> "unreachable"
        | `Partition -> "partition"
      in
      Metrics.add_count m "wire_dropped_bytes_total" ~labels:[ ("reason", reason) ] total;
      Metrics.incr m "wire_dropped_msgs_total" ~labels:[ ("reason", reason) ]

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

(* The dimensional view of a delivered message: each [(kind, bytes)] part
   feeds its own labeled series, so one frame carrying a report and a
   query splits cleanly by kind while counting once in [messages_sent].
   A one-part message is labeled without building a part list. *)
let label_part t ~dir ~kind bytes =
  (match t.metrics with None -> () | Some m -> count_part t m ~dir ~kind bytes);
  match t.timeseries with
  | None -> ()
  | Some ts ->
      let now = Engine.now t.engine in
      Timeseries.observe ts "wire_bytes" ~now (float_of_int bytes);
      Timeseries.observe ts ("wire_bytes:" ^ kind) ~now (float_of_int bytes)

let label_parts t ~dir ~total parts =
  (match t.metrics with None -> () | Some m -> count_parts t m ~dir parts);
  match t.timeseries with
  | None -> ()
  | Some ts ->
      let now = Engine.now t.engine in
      Timeseries.observe ts "wire_bytes" ~now (float_of_int total);
      List.iter
        (fun (kind, bytes) ->
          Timeseries.observe ts ("wire_bytes:" ^ kind) ~now (float_of_int bytes))
        parts

(* Route a message of [total] bytes: count it into its drop bucket, or
   count it delivered and say so. *)
let routed t ~src ~dst ~total =
  let hops = walk t ~src ~dst in
  if hops = max_int then (account_drop t ~reason:`Unreachable ~total; false)
  else if partitioned t ~src ~dst then (account_drop t ~reason:`Partition ~total; false)
  else if lost t then (account_drop t ~reason:`Loss ~total; false)
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
let dropped_loss t = t.dropped_loss
let messages_dropped t = t.dropped_loss + t.dropped_unreachable + t.dropped_partition
let dropped_loss_bytes t = t.dropped_loss_bytes
let dropped_unreachable_bytes t = t.dropped_unreachable_bytes
let dropped_partition_bytes t = t.dropped_partition_bytes

let bytes_dropped t =
  t.dropped_loss_bytes + t.dropped_unreachable_bytes + t.dropped_partition_bytes

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
    ("dropped_loss", t.dropped_loss);
    ("dropped_unreachable", t.dropped_unreachable);
    ("dropped_partition", t.dropped_partition);
    ("dropped_loss_bytes", t.dropped_loss_bytes);
    ("dropped_unreachable_bytes", t.dropped_unreachable_bytes);
    ("dropped_partition_bytes", t.dropped_partition_bytes);
  ]
