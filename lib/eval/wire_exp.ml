(* The bytes-on-wire experiment: how much traffic the protocol actually
   moves, broken down by message kind, and what replication does to it.

   Every peer joins through its own resilient RPC, with a loss burst over
   part of the arrival window so the retry, dropped and anti-entropy
   snapshot byte buckets are all nonzero in one run.

   Everything is read back from the transport's labeled wire accounting
   ([wire_bytes_total{kind,dir}] etc.), and the run re-checks the two
   conservation invariants the accounting promises: per-kind bytes sum to
   [Transport.bytes_sent], per-reason dropped bytes sum to
   [Transport.bytes_dropped].  Deterministic in the seed. *)

type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  replicas : int;
  loss : float;
  arrival_window_ms : float;
  sync_period_ms : float;
  rpc : Simkit.Rpc.config;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 10_000;
    landmark_count = 8;
    k = 5;
    replicas = 3;
    loss = 0.3;
    arrival_window_ms = 20_000.0;
    sync_period_ms = 2_000.0;
    rpc = Simkit.Rpc.default_config;
    seed = 1;
  }

let quick_config =
  { default_config with routers = 800; peers = 1_500; arrival_window_ms = 8_000.0 }

type kind_row = { kind : string; bytes : int; msgs : int }

type result = {
  joins : int;
  completed : int;
  failed : int;
  completion_rate : float;
  bytes_sent : int;
  bytes_dropped : int;
  messages : int;
  bytes_per_join : float;
  bytes_per_query : float;
  replication_amplification : float;
  snapshot_bytes : int;
  retry_bytes : int;
  fd_probe_bytes : int;
  dropped_loss_bytes : int;
  dropped_unreachable_bytes : int;
  dropped_partition_bytes : int;
  kinds : kind_row list;
  top_talkers : Simkit.Transport.talker list;
  accounted : bool;
}

(* --- Reading the labeled registry back ---------------------------------- *)

let label labels key = match List.assoc_opt key labels with Some v -> v | None -> ""

let sum_counters metrics name ~where =
  List.fold_left
    (fun acc (n, labels, _) ->
      if n = name && where labels then acc + Simkit.Metrics.counter metrics name ~labels
      else acc)
    0
    (Simkit.Metrics.series metrics)

let kind_bytes metrics kind =
  sum_counters metrics "wire_bytes_total" ~where:(fun l -> label l "kind" = kind)

let dir_bytes metrics dirs =
  sum_counters metrics "wire_bytes_total" ~where:(fun l -> List.mem (label l "dir") dirs)

(* Per-kind (bytes, msgs) summed over directions, largest first. *)
let kind_rows metrics =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (n, labels, _) ->
      if n = "wire_bytes_total" then begin
        let kind = label labels "kind" in
        let bytes = Simkit.Metrics.counter metrics "wire_bytes_total" ~labels in
        let msgs = Simkit.Metrics.counter metrics "wire_msgs_total" ~labels in
        let b0, m0 = Option.value (Hashtbl.find_opt tbl kind) ~default:(0, 0) in
        Hashtbl.replace tbl kind (b0 + bytes, m0 + msgs)
      end)
    (Simkit.Metrics.series metrics);
  Hashtbl.fold (fun kind (bytes, msgs) acc -> { kind; bytes; msgs } :: acc) tbl []
  |> List.sort (fun a b -> compare (b.bytes, a.kind) (a.bytes, b.kind))

(* The conservation invariants: every delivered byte carries exactly one
   kind label, every dropped byte exactly one reason label. *)
let reconciled metrics transport =
  sum_counters metrics "wire_bytes_total" ~where:(fun _ -> true)
  = Simkit.Transport.bytes_sent transport
  && sum_counters metrics "wire_dropped_bytes_total" ~where:(fun _ -> true)
     = Simkit.Transport.bytes_dropped transport

(* --- The run ------------------------------------------------------------ *)

let run (config : config) =
  if config.replicas < 1 then invalid_arg "Wire_exp: replicas must be >= 1";
  if config.loss < 0.0 || config.loss >= 1.0 then invalid_arg "Wire_exp: loss outside [0, 1)";
  let w =
    Workload.build ~routers:config.routers ~landmark_count:config.landmark_count
      ~peers:config.peers ~seed:config.seed ()
  in
  let engine = Simkit.Engine.create () in
  let m = Simkit.Metrics.create () in
  let tr =
    Simkit.Transport.create ~rng:(Prelude.Prng.split w.rng) ~metrics:m engine w.ctx.oracle
  in
  let replica_routers =
    Nearby.Landmark.place (Workload.graph w) Medium_degree ~count:config.replicas
      ~rng:(Prelude.Prng.split w.rng)
  in
  let client_router = w.map.core.(0) in
  let cluster =
    Nearby.Cluster.create ~metrics:m ~transport:tr ~client_router
      ~make_server:(fun () ->
        Nearby.Server.create ?latency:w.ctx.latency w.ctx.oracle ~landmarks:w.landmarks)
      ~routers:replica_routers ()
  in
  let rpc = Simkit.Rpc.create ~config:config.rpc ~rng:(Prelude.Prng.split w.rng) tr in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  (* Lost fan-outs and replies during the burst force retries and
     anti-entropy snapshot repair, so the retry, dropped and snapshot
     buckets are all exercised by one scenario. *)
  if config.loss > 0.0 then begin
    let aw = config.arrival_window_ms in
    Simkit.Engine.schedule_at engine ~time:(0.25 *. aw) (fun () ->
        Simkit.Transport.set_loss_prob tr config.loss);
    Simkit.Engine.schedule_at engine ~time:(0.6 *. aw) (fun () ->
        Simkit.Transport.set_loss_prob tr 0.0)
  end;
  let horizon =
    config.arrival_window_ms +. Simkit.Rpc.worst_case_ms config.rpc +. (3.0 *. config.sync_period_ms)
    +. 1_000.0
  in
  Nearby.Cluster.start_sync cluster ~period_ms:config.sync_period_ms ~until:horizon;
  let completed = ref 0 and failed = ref 0 in
  for peer = 0 to config.peers - 1 do
    let at = Prelude.Prng.float w.rng config.arrival_window_ms in
    Simkit.Engine.schedule_at engine ~time:at (fun () ->
        Nearby.Protocol.join protocol ~peer ~attach_router:w.peer_routers.(peer) ~k:config.k
          ~on_complete:(fun _info _reply -> incr completed)
          ~on_failure:(fun () -> incr failed))
  done;
  Simkit.Engine.run engine ~until:horizon;
  Nearby.Cluster.sync_round cluster;
  Nearby.Cluster.check_invariants cluster;
  let per v n = if n = 0 then Float.nan else float_of_int v /. float_of_int n in
  {
    joins = config.peers;
    completed = !completed;
    failed = !failed;
    completion_rate = per !completed config.peers;
    bytes_sent = Simkit.Transport.bytes_sent tr;
    bytes_dropped = Simkit.Transport.bytes_dropped tr;
    messages = Simkit.Transport.messages_sent tr;
    (* Client-facing wire cost of a join: the request and reply legs —
       reports, queries, replies and every retried attempt — divided by
       the joins that completed.  Replica fan-out is the amplification
       number, not the per-join client cost. *)
    bytes_per_join = per (dir_bytes m [ "request"; "reply" ]) !completed;
    bytes_per_query = per (kind_bytes m "query" + kind_bytes m "reply") !completed;
    replication_amplification = Nearby.Cluster.replication_amplification cluster;
    snapshot_bytes = kind_bytes m "snapshot";
    retry_bytes = kind_bytes m "retry";
    fd_probe_bytes = kind_bytes m "fd_probe";
    dropped_loss_bytes = Simkit.Transport.dropped_loss_bytes tr;
    dropped_unreachable_bytes = Simkit.Transport.dropped_unreachable_bytes tr;
    dropped_partition_bytes = Simkit.Transport.dropped_partition_bytes tr;
    kinds = kind_rows m;
    top_talkers = Simkit.Transport.top_talkers tr ~k:5;
    accounted = reconciled m tr;
  }

(* --- Rendering ---------------------------------------------------------- *)

let result_json (r : result) =
  let fl v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  let kind_json (k : kind_row) =
    Printf.sprintf {|{"kind": %s, "bytes": %d, "msgs": %d}|} (Simkit.Json_str.quote k.kind)
      k.bytes k.msgs
  in
  let talker_json (t : Simkit.Transport.talker) =
    Printf.sprintf {|{"node": %d, "sent_bytes": %d, "recv_bytes": %d, "sent_msgs": %d, "recv_msgs": %d}|}
      t.node t.sent_bytes t.recv_bytes t.sent_msgs t.recv_msgs
  in
  Printf.sprintf
    {|{"joins": %d, "completed": %d, "failed": %d, "completion_rate": %.4f, "bytes_sent": %d, "bytes_dropped": %d, "messages": %d, "bytes_per_join": %s, "bytes_per_query": %s, "replication_amplification": %s, "snapshot_bytes": %d, "retry_bytes": %d, "fd_probe_bytes": %d, "dropped_loss_bytes": %d, "dropped_unreachable_bytes": %d, "dropped_partition_bytes": %d, "kinds": [%s], "top_talkers": [%s], "accounted": %b}|}
    r.joins r.completed r.failed r.completion_rate r.bytes_sent r.bytes_dropped r.messages
    (fl r.bytes_per_join) (fl r.bytes_per_query)
    (fl r.replication_amplification)
    r.snapshot_bytes r.retry_bytes r.fd_probe_bytes r.dropped_loss_bytes
    r.dropped_unreachable_bytes r.dropped_partition_bytes
    (String.concat ", " (List.map kind_json r.kinds))
    (String.concat ", " (List.map talker_json r.top_talkers))
    r.accounted

(* Byte counts on the simulated wire are pure functions of the seed, so
   everything gates tightly and the structural bits exactly. *)
let gates (r : result) =
  let moved kind = List.exists (fun (k : kind_row) -> k.kind = kind && k.bytes > 0) r.kinds in
  Regression.(
    [
      gate "wire/completion_rate" r.completion_rate Higher_better 0.02;
      gate "wire/bytes_per_join" r.bytes_per_join Lower_better 0.1;
      gate "wire/bytes_per_query" r.bytes_per_query Lower_better 0.1;
      exact "wire/replication_amplification" r.replication_amplification;
      gate "wire/snapshot_bytes_per_join"
        (float_of_int r.snapshot_bytes /. Float.max 1.0 (float_of_int r.joins))
        Lower_better 0.5;
      flag "wire/accounted" r.accounted;
      flag "wire/loss_burst_dropped_bytes" (r.dropped_loss_bytes > 0);
      flag "wire/top_talkers_tallied" (r.top_talkers <> []);
    ]
    (* Every kind the protocol speaks moves bytes in one run: reports and
       queries from the joins, replies back, retries and snapshots from the
       loss burst, fd probes from the replica heartbeats. *)
    @ List.map
        (fun kind -> flag (Printf.sprintf "wire/%s/moved_bytes" kind) (moved kind))
        [ "path_report"; "query"; "reply"; "retry"; "snapshot"; "fd_probe" ])

let print (r : result) =
  Printf.printf "Wire: joins=%d completed=%d accounted=%b\n" r.joins r.completed r.accounted;
  Prelude.Table.print
    ~header:[ "metric"; "value" ]
    [
      [ "bytes sent"; string_of_int r.bytes_sent ];
      [ "bytes dropped"; string_of_int r.bytes_dropped ];
      [ "messages"; string_of_int r.messages ];
      [ "bytes/join"; Prelude.Table.float_cell ~decimals:1 r.bytes_per_join ];
      [ "bytes/query"; Prelude.Table.float_cell ~decimals:1 r.bytes_per_query ];
      [
        "replication amplification";
        Prelude.Table.float_cell ~decimals:2 r.replication_amplification;
      ];
      [ "snapshot bytes"; string_of_int r.snapshot_bytes ];
      [ "retry bytes"; string_of_int r.retry_bytes ];
      [ "fd probe bytes"; string_of_int r.fd_probe_bytes ];
      [ "dropped (loss) bytes"; string_of_int r.dropped_loss_bytes ];
      [ "dropped (unreachable) bytes"; string_of_int r.dropped_unreachable_bytes ];
      [ "dropped (partition) bytes"; string_of_int r.dropped_partition_bytes ];
    ];
  Printf.printf "per-kind bytes (both directions):\n";
  Prelude.Table.print
    ~header:[ "kind"; "bytes"; "msgs" ]
    (List.map
       (fun (k : kind_row) -> [ k.kind; string_of_int k.bytes; string_of_int k.msgs ])
       r.kinds);
  Printf.printf "top talkers:\n";
  Prelude.Table.print
    ~header:[ "node"; "sent"; "recv" ]
    (List.map
       (fun (t : Simkit.Transport.talker) ->
         [ string_of_int t.node; string_of_int t.sent_bytes; string_of_int t.recv_bytes ])
       r.top_talkers)
