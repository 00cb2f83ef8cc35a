(** Decentralizing the management server: central vs super-peers vs DHT.

    The same workload is registered on the centralized server and on
    per-landmark {!Dht.Directory} shards over a Chord ring of storage
    nodes; the server's landmark trees are also the super-peers' regions.
    Discovery answers are identical by construction (verified), so the
    comparison is about {e cost}: overlay hops per join/query and how
    storage and request load spread. *)

type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  dht_nodes : int;
  virtual_nodes : int;  (** Ring positions per storage node. *)
  k : int;
  seed : int;
}

val default_config : config
val quick_config : config

type backend_row = {
  backend : string;
  identical : bool;  (** Same answers as the path-tree server's. *)
  backend_stats : (string * int) list;
      (** {!Nearby.Server.registry_stats} of the backend's server. *)
  queries : int;  (** That server's ["registry_query"] counter. *)
}

type report = {
  answers_identical : bool;  (** DHT answers == central answers for every peer. *)
  mean_lookups_per_join : float;
  mean_hops_per_lookup : float;
  mean_lookups_per_query : float;
  bucket_balance : float;  (** Max buckets on a node / mean, with virtual nodes. *)
  bucket_balance_v1 : float;  (** Same without virtual nodes (1 position each). *)
  super_peer_balance : float;
      (** Same metric for the super-peer split: the central server's
          per-landmark member counts. *)
  ring_size : int;
  mean_hops_kademlia : float;
      (** The same lookups greedy-routed over a Kademlia table of the same
          nodes — the XOR-metric comparison point. *)
  join_migration_fraction : float;
      (** Buckets moved when one storage node joins, as a fraction of all
          stored buckets (consistent hashing: ~1/(N+1)). *)
  backend_rows : backend_row list;
      (** The same joins on a server of every registry backend
          ({!Backends.all}). *)
}

val run : config -> report
val print : report -> unit
