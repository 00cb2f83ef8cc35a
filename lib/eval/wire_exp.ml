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
  k : int;
  replicas : int;
  loss : float;
  arrival_window_ms : float;
  sync_period_ms : float;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 10_000;
    k = 5;
    replicas = 3;
    loss = 0.3;
    arrival_window_ms = 20_000.0;
    sync_period_ms = 2_000.0;
    seed = 1;
  }

let quick_config =
  { default_config with routers = 800; peers = 1_500; arrival_window_ms = 8_000.0 }

type kind_row = Cluster_run.kind_row = { kind : string; bytes : int; msgs : int }

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

(* The conservation invariants: every delivered byte carries exactly one
   kind label, every dropped byte exactly one reason label. *)
let reconciled metrics transport =
  Cluster_run.counter_sum metrics "wire_bytes_total" = Simkit.Transport.bytes_sent transport
  && Cluster_run.counter_sum metrics "wire_dropped_bytes_total"
     = Simkit.Transport.bytes_dropped transport

let run (config : config) =
  if config.loss < 0.0 || config.loss >= 1.0 then invalid_arg "Wire_exp: loss outside [0, 1)";
  let run_config =
    {
      Cluster_run.routers = config.routers;
      peers = config.peers;
      k = config.k;
      replicas = config.replicas;
      arrival_window_ms = config.arrival_window_ms;
      sync_period_ms = config.sync_period_ms;
      drain_ms = 0.0;
      seed = config.seed;
    }
  in
  let m = Simkit.Metrics.create () in
  (* Lost fan-outs and replies during the burst force retries and
     anti-entropy snapshot repair, so the retry, dropped and snapshot
     buckets are all exercised by one scenario. *)
  let from_ms, until_ms = Cluster_run.fault_window run_config in
  let run =
    Cluster_run.create ~metrics:m
      ~fault:(fun _ -> Simkit.Fault.loss_burst ~from_ms ~until_ms ~loss:config.loss ())
      run_config
  in
  Cluster_run.arrivals run;
  Cluster_run.settle run;
  let tr = run.transport in
  let kinds = Cluster_run.wire_kinds m in
  let kind_bytes = Cluster_run.kind_bytes kinds in
  let per v n = if n = 0 then Float.nan else float_of_int v /. float_of_int n in
  (* Client-facing wire cost of a join: the request and reply legs —
     reports, queries, replies and every retried attempt — divided by the
     joins that completed.  Replica fan-out is the amplification number,
     not the per-join client cost. *)
  let client_bytes =
    Cluster_run.counter_sum m "wire_bytes_total" ~where:(fun l ->
        List.mem (List.assoc_opt "dir" l) [ Some "request"; Some "reply" ])
  in
  {
    joins = config.peers;
    completed = run.completed;
    failed = run.failed;
    completion_rate = per run.completed config.peers;
    bytes_sent = Simkit.Transport.bytes_sent tr;
    bytes_dropped = Simkit.Transport.bytes_dropped tr;
    messages = Simkit.Transport.messages_sent tr;
    bytes_per_join = per client_bytes run.completed;
    bytes_per_query = per (kind_bytes "query" + kind_bytes "reply") run.completed;
    replication_amplification = Nearby.Cluster.replication_amplification run.cluster;
    snapshot_bytes = kind_bytes "snapshot";
    retry_bytes = kind_bytes "retry";
    fd_probe_bytes = kind_bytes "fd_probe";
    dropped_loss_bytes = Simkit.Transport.dropped_loss_bytes tr;
    dropped_unreachable_bytes = Simkit.Transport.dropped_unreachable_bytes tr;
    dropped_partition_bytes = Simkit.Transport.dropped_partition_bytes tr;
    kinds;
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
