(* The per-layer metrics every workload shares: self-time shares of the
   traced window, registry and server call costs, runtime counters, the
   observability cost and the tracing overhead. *)

open Common

let server_layers =
  Prof.[ server_neighbors; server_register_batch; server_leave; server_restore ]

let registry_layers =
  Prof.[ registry_insert; registry_insert_many; registry_remove; registry_query ]

let quantile_pair samples =
  match Samples.quantiles samples [ 0.5; 0.99 ] with [ a; b ] -> (a, b) | _ -> assert false

let common ~before ~ops_per_pass ~(untraced : window) ~(traced : window) ~(obs : window option)
    ~server ~neighbor_us =
  let ops (w : window) = float_of_int (w.passes * ops_per_pass) in
  let wall_ns = traced.wall_s *. 1e9 in
  let self l = float_of_int (Prof.since before l).t_self in
  let share ls = List.fold_left (fun acc l -> acc +. self l) 0.0 ls /. wall_ns in
  let shares =
    [
      ("engine.self_share", share [ Prof.engine_step ]);
      ("protocol.share", share [ Prof.protocol_join ]);
      ("cluster.sync_share", share [ Prof.cluster_sync ]);
      ("admission.share", share [ Prof.admission_submit ]);
      ("server.share", share server_layers);
      ("registry.share", share registry_layers);
      ("bench.share", share [ Prof.bench_harness ]);
    ]
  in
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 shares in
  let q50, q99 = quantile_pair (Option.get Prof.registry_query.samples) in
  let n50, n99 =
    quantile_pair
      (match neighbor_us with Some s -> s | None -> Option.get Prof.server_neighbors.samples)
  in
  let ins = Prof.registry_insert and many = Prof.registry_insert_many in
  let registry_calls =
    List.fold_left (fun acc l -> acc + (Prof.since before l).t_calls) 0 registry_layers
  in
  let intro = Nearby.Server.introspection server in
  let words_per_op (w : window) = w.gc.alloc_words /. ops w in
  let per_kop n = 1000.0 *. float_of_int n /. ops untraced in
  let obs_words, obs_cost =
    match obs with
    | None -> (0.0, 0.0)
    | Some ow ->
        ( words_per_op untraced -. words_per_op ow,
          1.0 -. (ow.median_pass_s /. untraced.median_pass_s) )
  in
  shares
  @ [
      ("trace.unattributed_share", 1.0 -. attributed);
      ("trace.overhead_frac", (traced.median_pass_s /. untraced.median_pass_s) -. 1.0);
      ("registry.query_us_p50", q50);
      ("registry.query_us_p99", q99);
      ( "registry.insert_us_per_entry",
        float_of_int (ins.incl_ns + many.incl_ns)
        /. 1e3
        /. float_of_int (ins.calls + many.entries) );
      ("registry.calls_per_op", float_of_int registry_calls /. ops traced);
      ("registry.bytes_per_member", per (float_of_int intro.approx_bytes) intro.members);
      ("server.neighbors_us_p50", n50);
      ("server.neighbors_us_p99", n99);
      ("gc.minor_collections_per_kop", per_kop untraced.gc.minor_gcs);
      ("gc.major_collections_per_kop", per_kop untraced.gc.major_gcs);
      ("gc.promoted_words_per_op", untraced.gc.promoted_words /. ops untraced);
      ("obs.words_per_op", obs_words);
      ("obs.cost_frac", obs_cost);
    ]
