(* Wire-level observability: the transport's per-kind/per-direction byte
   accounting, dropped-byte reasons, top talkers, and the end-to-end
   Wire_exp invariants (accounting reconciles, replication sends less
   than a full report per replica). *)

open Simkit

let labels = Alcotest.testable (fun fmt l ->
    Format.fprintf fmt "%s"
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)))
    ( = )

let _ = labels

let fixture ?metrics ?timeseries ?rng ?loss_prob () =
  let d = Eval.Paper_drawing.build () in
  let oracle = Traceroute.Route_oracle.create d.graph in
  let e = Engine.create () in
  (d, Transport.create ?rng ?loss_prob ?metrics ?timeseries e oracle)

let counter m name ~kind ~dir =
  Metrics.counter m name ~labels:[ ("kind", kind); ("dir", dir) ]

let sum_series m name =
  List.fold_left
    (fun acc (n, labels, _) -> if n = name then acc + Metrics.counter m n ~labels else acc)
    0 (Metrics.series m)

(* Every delivered byte lands in exactly one {kind,dir} series; multi-part
   frames charge each part to its own kind while counting one transport
   message; charge (synchronous accounting) uses the same books. *)
let test_labeled_accounting () =
  let metrics = Metrics.create () in
  let d, t = fixture ~metrics () in
  let e = Transport.engine t in
  Transport.send ~kind:"path_report" ~dir:"request" t ~src:d.p1 ~dst:d.lmk ~size_bytes:100
    (fun () -> ());
  Transport.send ~kind:"other" ~dir:"oneway" t ~src:d.p1 ~dst:d.lmk ~size_bytes:40 (fun () -> ());
  Transport.send_parts ~dir:"request" t ~src:d.p1 ~dst:d.lmk
    ~parts:[ ("path_report", 30); ("query", 20) ]
    (fun () -> ());
  Transport.charge ~kind:"snapshot" ~dir:"replica" t ~src:d.lmk ~dst:d.p1 ~size_bytes:77;
  Engine.run e;
  Alcotest.(check int) "path_report request bytes" 130
    (counter metrics "wire_bytes_total" ~kind:"path_report" ~dir:"request");
  Alcotest.(check int) "query request bytes" 20
    (counter metrics "wire_bytes_total" ~kind:"query" ~dir:"request");
  Alcotest.(check int) "default kind/dir bytes" 40
    (counter metrics "wire_bytes_total" ~kind:"other" ~dir:"oneway");
  Alcotest.(check int) "charged snapshot bytes" 77
    (counter metrics "wire_bytes_total" ~kind:"snapshot" ~dir:"replica");
  Alcotest.(check int) "path_report msgs (one per part)" 2
    (counter metrics "wire_msgs_total" ~kind:"path_report" ~dir:"request");
  Alcotest.(check int) "transport messages (one per frame)" 4 (Transport.messages_sent t);
  Alcotest.(check int) "bytes_sent aggregate" 267 (Transport.bytes_sent t);
  Alcotest.(check int) "per-kind bytes sum to bytes_sent" (Transport.bytes_sent t)
    (sum_series metrics "wire_bytes_total")

(* Dropped bytes land in per-reason buckets that sum to bytes_dropped, and
   never leak into the delivered accounting. *)
let test_dropped_bytes_by_reason () =
  let metrics = Metrics.create () in
  let g = Topology.Graph.of_edges ~node_count:4 [ (0, 1); (1, 2) ] in
  let oracle = Traceroute.Route_oracle.create g in
  let e = Engine.create () in
  let rng = Prelude.Prng.create 11 in
  let t = Transport.create ~rng ~metrics e oracle in
  (* Unreachable: node 3 is disconnected. *)
  Transport.send ~kind:"other" ~dir:"oneway" t ~src:0 ~dst:3 ~size_bytes:50 (fun () -> ());
  (* Partition: node 2 walled off. *)
  Transport.set_partition_nodes t [ 2 ];
  Transport.send ~kind:"other" ~dir:"oneway" t ~src:0 ~dst:2 ~size_bytes:30 (fun () -> ());
  Transport.clear_partition t;
  (* Loss: deterministic bookkeeping regardless of which sends the rng
     drops — all frames are 20 bytes, so loss bytes = 20 x loss count. *)
  Transport.set_loss_prob t 0.5;
  for _ = 1 to 40 do
    Transport.send ~kind:"other" ~dir:"oneway" t ~src:0 ~dst:2 ~size_bytes:20 (fun () -> ())
  done;
  Engine.run e;
  Alcotest.(check int) "unreachable bytes" 50 (Transport.dropped_unreachable_bytes t);
  Alcotest.(check int) "partition bytes" 30 (Transport.dropped_partition_bytes t);
  Alcotest.(check int) "loss bytes = 20 x loss count" (20 * Transport.dropped_loss t)
    (Transport.dropped_loss_bytes t);
  Alcotest.(check bool) "loss really dropped something" true (Transport.dropped_loss t > 0);
  Alcotest.(check int) "buckets sum to bytes_dropped"
    (Transport.dropped_loss_bytes t + Transport.dropped_unreachable_bytes t
   + Transport.dropped_partition_bytes t)
    (Transport.bytes_dropped t);
  (* The stats assoc exposes the byte buckets next to the message counts. *)
  let stats = Transport.stats t in
  List.iter
    (fun key ->
      match List.assoc_opt key stats with
      | Some _ -> ()
      | None -> Alcotest.failf "stats missing %s" key)
    [ "dropped_loss_bytes"; "dropped_unreachable_bytes"; "dropped_partition_bytes" ];
  Alcotest.(check int) "labeled dropped bytes reconcile" (Transport.bytes_dropped t)
    (sum_series metrics "wire_dropped_bytes_total");
  (* Dropped traffic is not delivered traffic. *)
  Alcotest.(check int) "delivered books exclude drops" (Transport.bytes_sent t)
    (sum_series metrics "wire_bytes_total")

let test_top_talkers () =
  let d, t = fixture () in
  let e = Transport.engine t in
  Transport.send ~kind:"other" ~dir:"oneway" t ~src:d.p1 ~dst:d.lmk ~size_bytes:500 (fun () -> ());
  Transport.send ~kind:"other" ~dir:"oneway" t ~src:d.p2 ~dst:d.lmk ~size_bytes:100 (fun () -> ());
  Transport.send ~kind:"other" ~dir:"oneway" t ~src:d.lmk ~dst:d.p1 ~size_bytes:50 (fun () -> ());
  Engine.run e;
  let talkers = Transport.top_talkers t ~k:2 in
  Alcotest.(check int) "k bounds the list" 2 (List.length talkers);
  (* lmk moved 650 (100+500 recv, 50 sent); p1 moved 550; p2 moved 100. *)
  let first = List.nth talkers 0 and second = List.nth talkers 1 in
  Alcotest.(check int) "loudest endpoint" d.lmk first.Transport.node;
  Alcotest.(check int) "loudest recv" 600 first.Transport.recv_bytes;
  Alcotest.(check int) "loudest sent" 50 first.Transport.sent_bytes;
  Alcotest.(check int) "runner-up" d.p1 second.Transport.node;
  Alcotest.(check int) "all endpoints tallied" 3 (Transport.endpoint_count t);
  Alcotest.(check int) "k above population returns all" 3
    (List.length (Transport.top_talkers t ~k:10));
  Alcotest.check_raises "negative k" (Invalid_argument "Transport.top_talkers: negative k")
    (fun () -> ignore (Transport.top_talkers t ~k:(-1)))

(* The end-to-end experiment on a small fixture: the two conservation
   invariants hold under a loss burst, and every protocol kind moved
   bytes.  Amplification counts the replication bytes sent against the
   reports registered, so under loss it is not a ratio of delivered
   books (the gauge test below reconciles it on a loss-free fleet); it
   is above 1, since every write is replicated, and below the replica
   count, since most replicas are sent only a prefix. *)
let test_wire_exp_invariants () =
  let config =
    {
      Eval.Wire_exp.quick_config with
      routers = 400;
      peers = 80;
      arrival_window_ms = 3_000.0;
      sync_period_ms = 1_000.0;
      seed = 3;
    }
  in
  let r = Eval.Wire_exp.run config in
  Alcotest.(check bool) "accounting reconciles" true r.accounted;
  let amp = r.replication_amplification in
  Alcotest.(check bool)
    (Printf.sprintf "1 < amplification %.4f < replicas" amp)
    true
    (amp > 1.0 && amp < float_of_int config.replicas);
  Alcotest.(check bool) "joins completed" true (r.completed > 0);
  let kind_bytes k =
    match List.find_opt (fun (row : Eval.Wire_exp.kind_row) -> row.kind = k) r.kinds with
    | Some row -> row.bytes
    | None -> 0
  in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " bytes nonzero") true (kind_bytes k > 0))
    [ "path_report"; "query"; "reply"; "fd_probe" ];
  Alcotest.(check bool) "loss burst dropped bytes" true (r.dropped_loss_bytes > 0);
  Alcotest.(check int) "kind rows sum to bytes_sent" r.bytes_sent
    (List.fold_left (fun acc (row : Eval.Wire_exp.kind_row) -> acc + row.bytes) 0 r.kinds);
  Alcotest.(check bool) "per-join cost is positive" true (r.bytes_per_join > 0.0);
  Alcotest.(check bool) "top talkers populated" true (r.top_talkers <> [])

(* The cluster mirrors its amplification into the labeled gauge the [wire]
   dashboard panel reads, and on a loss-free fleet, where every upload
   registers on its first attempt and every replication message lands,
   it reconciles exactly with the delivered wire books: 1 + replica
   path-report bytes / client path-report bytes. *)
let test_amplification_gauge () =
  let config = { Eval.Fleet_obs.quick_config with routers = 400; peers = 40; seed = 4 } in
  let r, t = Eval.Fleet_obs.run config in
  let m = Eval.Fleet_obs.metrics t in
  Alcotest.(check int) "every join completed" r.joins r.completed;
  Alcotest.(check int) "no retries" 0 r.rpc_timeouts;
  Alcotest.(check int) "nothing dropped" 0 r.wire_dropped_bytes;
  let client = counter m "wire_bytes_total" ~kind:"path_report" ~dir:"request"
  and replica = counter m "wire_bytes_total" ~kind:"path_report" ~dir:"replica" in
  Alcotest.(check bool) "client reports moved bytes" true (client > 0);
  match Metrics.gauge m "wire_replication_amplification" ~labels:[] with
  | Some v ->
      Alcotest.(check (float 1e-12)) "gauge = 1 + replica / client path-report bytes"
        (1.0 +. (float_of_int replica /. float_of_int client))
        v;
      Alcotest.(check (float 0.0)) "gauge = Cluster.replication_amplification"
        (Nearby.Cluster.replication_amplification (Eval.Fleet_obs.cluster t))
        v;
      Alcotest.(check bool)
        (Printf.sprintf "1 < amplification %.4f < replicas" v)
        true
        (v > 1.0 && v < float_of_int config.replicas)
  | None -> Alcotest.fail "wire_replication_amplification gauge missing"

(* A labeled two-part frame walks its route once and bumps cells resolved
   at the first frame of each (kind, dir): what it allocates is the
   delivery event and its delay, not the accounting. *)
let test_send_parts_allocation () =
  let metrics = Metrics.create () in
  let d, t = fixture ~metrics ~rng:(Prelude.Prng.create 3) () in
  let e = Transport.engine t in
  let parts = [ ("path_report", 30); ("query", 20) ] and handler () = () in
  let send () = Transport.send_parts ~dir:"request" t ~src:d.p1 ~dst:d.lmk ~parts handler in
  send ();
  Engine.run e;
  let before = Gc.minor_words () in
  send ();
  let words = Gc.minor_words () -. before in
  Engine.run e;
  Alcotest.(check int) "both frames counted" 4
    (counter metrics "wire_msgs_total" ~kind:"path_report" ~dir:"request"
    + counter metrics "wire_msgs_total" ~kind:"query" ~dir:"request");
  (* 4 words measured: the jitter draw's float and the delay handed to
     the engine, each boxed across a module boundary.  The generator's
     state and the accounting allocate nothing. *)
  Alcotest.(check bool) (Printf.sprintf "one send allocates %.0f words" words) true (words <= 4.0)

(* With a timeseries attached too, each part's window series is kept
   beside its (kind, dir) cells and the all-kinds [wire_bytes] series is
   resolved once: a send builds no series name. *)
let test_send_parts_timeseries_allocation () =
  let metrics = Metrics.create () in
  let timeseries = Timeseries.create ~window_ms:1e6 () in
  let d, t = fixture ~metrics ~timeseries ~rng:(Prelude.Prng.create 3) () in
  let e = Transport.engine t in
  let parts = [ ("path_report", 30); ("query", 20) ] and handler () = () in
  let send () = Transport.send_parts ~dir:"request" t ~src:d.p1 ~dst:d.lmk ~parts handler in
  send ();
  Engine.run e;
  let before = Gc.minor_words () in
  send ();
  let words = Gc.minor_words () -. before in
  Engine.run e;
  let count name =
    match Timeseries.windows timeseries name with [ Some w ] -> w.Timeseries.count | _ -> 0
  in
  Alcotest.(check (list int)) "windowed frames" [ 2; 2; 2 ]
    [ count "wire_bytes"; count "wire_bytes:path_report"; count "wire_bytes:query" ];
  (* 10 words measured: the send's 4, then the engine clock read for the
     window and the sizes handed to [Timeseries], floats boxed across a
     module boundary.  Building a [wire_bytes:<kind>] name per part
     made it 24. *)
  Alcotest.(check bool) (Printf.sprintf "one send allocates %.0f words" words) true (words <= 10.0)

let suite =
  ( "wire-obs",
    [
      Alcotest.test_case "labeled kind/dir accounting" `Quick test_labeled_accounting;
      Alcotest.test_case "dropped bytes by reason" `Quick test_dropped_bytes_by_reason;
      Alcotest.test_case "top talkers" `Quick test_top_talkers;
      Alcotest.test_case "wire_exp invariants" `Slow test_wire_exp_invariants;
      Alcotest.test_case "amplification gauge" `Quick test_amplification_gauge;
      Alcotest.test_case "labeled two-part send allocation" `Quick test_send_parts_allocation;
      Alcotest.test_case "windowed two-part send allocation" `Quick
        test_send_parts_timeseries_allocation;
    ] )
