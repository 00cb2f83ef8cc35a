type tally = {
  mutable t_sent_bytes : int;
  mutable t_recv_bytes : int;
  mutable t_sent_msgs : int;
  mutable t_recv_msgs : int;
}

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
  mutable metrics : Metrics.t option;
  mutable timeseries : Timeseries.t option;
  talkers : (Topology.Graph.node, tally) Hashtbl.t;
}

let default_kind = "other"
let default_dir = "oneway"

let check_loss_prob ~who ~rng loss_prob =
  if loss_prob < 0.0 || loss_prob >= 1.0 then
    invalid_arg (who ^ ": loss_prob outside [0, 1)");
  if loss_prob > 0.0 && rng = None then invalid_arg (who ^ ": loss_prob needs ~rng")

let create ?latency ?rng ?(loss_prob = 0.0) ?metrics ?timeseries engine oracle =
  check_loss_prob ~who:"Transport.create" ~rng loss_prob;
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
    metrics;
    timeseries;
    talkers = Hashtbl.create 64;
  }

let engine t = t.engine

let set_wire_sinks ?metrics ?timeseries t =
  (match metrics with Some _ -> t.metrics <- metrics | None -> ());
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

let one_way_delay t ~src ~dst =
  match t.latency with
  | Some table -> (
      match Traceroute.Route_oracle.route t.oracle ~src ~dst with
      | [] -> infinity
      | routers -> Topology.Latency.path_latency table routers)
  | None -> (
      match Traceroute.Route_oracle.route_length t.oracle ~src ~dst with
      | hops when hops = max_int -> infinity
      | hops -> float_of_int hops)

let jitter t delay =
  match t.rng with
  | None -> delay
  | Some rng -> delay *. (1.0 +. (0.05 *. (Prelude.Prng.unit_float rng -. 0.5) *. 2.0))

let lost t =
  t.loss_prob > 0.0
  && match t.rng with Some rng -> Prelude.Prng.unit_float rng < t.loss_prob | None -> false

let parts_total parts = List.fold_left (fun acc (_, b) -> acc + b) 0 parts

let tally_of t node =
  match Hashtbl.find_opt t.talkers node with
  | Some tl -> tl
  | None ->
      let tl = { t_sent_bytes = 0; t_recv_bytes = 0; t_sent_msgs = 0; t_recv_msgs = 0 } in
      Hashtbl.replace t.talkers node tl;
      tl

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

(* One delivered message: whole-run counters, per-endpoint tallies, then the
   dimensional view — each [(kind, bytes)] part feeds its own labeled series,
   so one frame carrying a report and a query splits cleanly by kind while
   counting once in [messages_sent]. *)
let account_delivered t ~src ~dst ~dir ~parts ~total =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + total;
  let hops = Traceroute.Route_oracle.route_length t.oracle ~src ~dst in
  if hops <> max_int then t.link_bytes <- t.link_bytes + (total * hops);
  let s = tally_of t src and d = tally_of t dst in
  s.t_sent_bytes <- s.t_sent_bytes + total;
  s.t_sent_msgs <- s.t_sent_msgs + 1;
  d.t_recv_bytes <- d.t_recv_bytes + total;
  d.t_recv_msgs <- d.t_recv_msgs + 1;
  (match t.metrics with
  | None -> ()
  | Some m ->
      List.iter
        (fun (kind, bytes) ->
          let labels = [ ("kind", kind); ("dir", dir) ] in
          Metrics.add_count m "wire_bytes_total" ~labels bytes;
          Metrics.incr m "wire_msgs_total" ~labels)
        parts);
  match t.timeseries with
  | None -> ()
  | Some ts ->
      let now = Engine.now t.engine in
      Timeseries.observe ts "wire_bytes" ~now (float_of_int total);
      List.iter
        (fun (kind, bytes) ->
          Timeseries.observe ts ("wire_bytes:" ^ kind) ~now (float_of_int bytes))
        parts

let send_parts ?(dir = default_dir) t ~src ~dst ~parts handler =
  let total = parts_total parts in
  let delay = one_way_delay t ~src ~dst in
  if delay = infinity then account_drop t ~reason:`Unreachable ~total
  else if partitioned t ~src ~dst then account_drop t ~reason:`Partition ~total
  else if lost t then account_drop t ~reason:`Loss ~total
  else begin
    account_delivered t ~src ~dst ~dir ~parts ~total;
    Engine.schedule t.engine ~delay:(jitter t delay) handler
  end

let send ?(kind = default_kind) ?dir t ~src ~dst ~size_bytes handler =
  send_parts ?dir t ~src ~dst ~parts:[ (kind, size_bytes) ] handler

let charge ?(kind = default_kind) ?(dir = default_dir) t ~src ~dst ~size_bytes =
  account_delivered t ~src ~dst ~dir ~parts:[ (kind, size_bytes) ] ~total:size_bytes

(* Loss is drawn independently per leg: the request's Bernoulli draw happens
   at call time, the reply's at request-delivery time.  Either leg dying
   alone kills the RTT — the failure probability of an RPC under loss p is
   1 - (1-p)^2, not p. *)
let rpc ?kind t ~src ~dst ~request_bytes ~reply_bytes handler =
  send ?kind ~dir:"request" t ~src ~dst ~size_bytes:request_bytes (fun () ->
      send ?kind ~dir:"reply" t ~src:dst ~dst:src ~size_bytes:reply_bytes handler)

let messages_sent t = t.messages
let link_bytes t = t.link_bytes
let bytes_sent t = t.bytes
let dropped_loss t = t.dropped_loss
let dropped_unreachable t = t.dropped_unreachable
let dropped_partition t = t.dropped_partition
let messages_dropped t = t.dropped_loss + t.dropped_unreachable + t.dropped_partition
let dropped_loss_bytes t = t.dropped_loss_bytes
let dropped_unreachable_bytes t = t.dropped_unreachable_bytes
let dropped_partition_bytes t = t.dropped_partition_bytes

let bytes_dropped t =
  t.dropped_loss_bytes + t.dropped_unreachable_bytes + t.dropped_partition_bytes

let endpoint_count t = Hashtbl.length t.talkers

let top_talkers t ~k =
  if k < 0 then invalid_arg "Transport.top_talkers: negative k";
  let all =
    Hashtbl.fold
      (fun node tl acc ->
        {
          node;
          sent_bytes = tl.t_sent_bytes;
          recv_bytes = tl.t_recv_bytes;
          sent_msgs = tl.t_sent_msgs;
          recv_msgs = tl.t_recv_msgs;
        }
        :: acc)
      t.talkers []
  in
  let volume tk = tk.sent_bytes + tk.recv_bytes in
  let sorted =
    List.sort
      (fun a b ->
        match compare (volume b) (volume a) with 0 -> compare a.node b.node | c -> c)
      all
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
