(** Message delivery between hosts over the router map.

    One-way delay is the forwarding-route latency between the attachment
    routers (halved ping); delivery is an engine event.  Message and byte
    counters feed the protocol-cost reports.  Each message walks its route
    once: the one walk gives its delay and the link count behind
    {!link_bytes}.

    {b Wire accounting.} Every byte offered to the transport is
    attributable.  Each send carries a message-kind label (the
    [Nearby.Wire] tags: [path_report], [path_report_batch], [query],
    [reply], [snapshot], [fd_probe], [retry], …) and a direction
    ([request] / [reply] / [replica] / [oneway]).  With [~metrics]
    attached, delivered traffic feeds the labeled counters
    [wire_bytes_total{kind,dir}] / [wire_msgs_total{kind,dir}] and dropped
    traffic feeds [wire_dropped_bytes_total{reason}]; with [~timeseries],
    each delivery lands in the windowed series [wire_bytes] (all kinds)
    and [wire_bytes:<kind>], giving bytes-per-second per kind.  Invariants
    (locked by the suite): the sum of [wire_bytes_total] over all labels
    equals {!bytes_sent}, and the sum of [wire_dropped_bytes_total] equals
    {!bytes_dropped}.  Per-endpoint byte tallies back {!top_talkers}.

    Fault injection is three independent mechanisms, each counted in its
    own drop bucket (messages {e and} bytes):
    - {e loss}: every message is dropped with probability [loss_prob],
      drawn independently per message (so the two legs of an {!Rpc} call fail
      independently); mutable at runtime via {!set_loss_prob} for scripted
      loss windows (see {!Fault});
    - {e unreachable}: no forwarding route between the routers;
    - {e partition}: a scripted cut ({!set_partition_nodes}) dropping every
      message that crosses the partition boundary. *)

type t

val create :
  ?latency:Topology.Latency.t ->
  ?rng:Prelude.Prng.t ->
  ?loss_prob:float ->
  ?metrics:Metrics.t ->
  ?timeseries:Timeseries.t ->
  Engine.t ->
  Traceroute.Route_oracle.t ->
  t
(** Without a latency table, each hop costs 1 ms one-way.  The optional [rng]
    adds 5% jitter per message and enables [loss_prob]: each message is
    silently dropped with that probability (failure injection for protocol
    robustness tests).  [metrics] / [timeseries] enable the labeled wire
    accounting described above, fixed for the transport's life; without
    them only the whole-run counters are kept.  @raise Invalid_argument
    if [loss_prob] is outside [0, 1) or given without [rng]. *)

val engine : t -> Engine.t

val set_loss_prob : t -> float -> unit
(** Change the loss probability mid-run (scripted loss windows).
    @raise Invalid_argument if outside [0, 1) or positive without the
    transport having been created with [~rng]. *)

val loss_prob : t -> float

val set_partition_nodes : t -> Topology.Graph.node list -> unit
(** Install a network partition: every message between a listed router and
    an unlisted one is dropped (counted as [dropped_partition]); traffic
    within either side flows normally.  Replaces any previous partition. *)

val clear_partition : t -> unit
(** Heal the partition. *)

val send :
  kind:string ->
  dir:string ->
  t ->
  src:Topology.Graph.node ->
  dst:Topology.Graph.node ->
  size_bytes:int ->
  (unit -> unit) ->
  unit
(** [send t ~src ~dst ~size_bytes handler] delivers [handler] after the
    one-way delay.  Messages between unreachable routers, across a
    partition, or hit by loss injection are dropped (each counted in its
    bucket, messages and bytes).  [kind] and [dir] label the bytes (see
    the wire accounting above); one-way traffic is [~dir:"oneway"]. *)

val send_parts :
  dir:string ->
  t ->
  src:Topology.Graph.node ->
  dst:Topology.Graph.node ->
  parts:(string * int) list ->
  (unit -> unit) ->
  unit
(** One message whose payload splits into [(kind, bytes)] components — a
    join frame carrying a path report plus a neighbor query charges each
    kind its own bytes while counting one message.  The transmitted size
    is the sum of the parts. *)

val charge :
  kind:string ->
  dir:string ->
  t ->
  src:Topology.Graph.node ->
  dst:Topology.Graph.node ->
  size_bytes:int ->
  unit
(** Account a message as sent and delivered {e without} scheduling a
    delivery event — for traffic whose application the caller performs
    synchronously (anti-entropy snapshot transfer).  Feeds every counter
    {!send} feeds: [messages], [bytes], [link_bytes], labeled series,
    talker tallies. *)

val one_way_delay : t -> src:Topology.Graph.node -> dst:Topology.Graph.node -> float
(** The delay [send] would use right now (jitter-free). *)

val one_way_delay_into :
  t -> src:Topology.Graph.node -> dst:Topology.Graph.node -> float array -> int -> unit
(** [one_way_delay_into t ~src ~dst cells i] stores [one_way_delay t ~src
    ~dst] in [cells.(i)], where the caller reads it unboxed: no float is
    boxed per call. *)

val messages_sent : t -> int
val bytes_sent : t -> int
val link_bytes : t -> int
(** Network stress: sum over messages of [size_bytes x router hops
    traversed] — the quantity that topology-aware overlays reduce even when
    end-to-end byte counts are equal. *)

val dropped_loss : t -> int
(** Messages killed by loss injection. *)

val messages_dropped : t -> int
(** All drop buckets summed. *)

val dropped_loss_bytes : t -> int
val dropped_unreachable_bytes : t -> int
val dropped_partition_bytes : t -> int
(** Bytes in each drop bucket — the bandwidth wasted on traffic that never
    arrived (what a loss burst costs, not just how many frames it ate). *)

val bytes_dropped : t -> int
(** All drop buckets summed, in bytes. *)

(** {2 Top talkers} *)

type talker = {
  node : Topology.Graph.node;
  sent_bytes : int;
  recv_bytes : int;
  sent_msgs : int;
  recv_msgs : int;
}

val top_talkers : t -> k:int -> talker list
(** The [k] endpoints moving the most delivered bytes (sent + received),
    heaviest first, ties broken by node id — the transport-level mirror of
    the registry [introspect] hot-router report.  Dropped traffic is not
    attributed.  @raise Invalid_argument on negative [k]. *)

val endpoint_count : t -> int
(** Distinct endpoints that have sent or received at least one message. *)

val stats : t -> (string * int) list
(** The full counter breakdown as an assoc list: [messages], [bytes],
    [link_bytes], [dropped_loss], [dropped_unreachable],
    [dropped_partition], [dropped_loss_bytes],
    [dropped_unreachable_bytes], [dropped_partition_bytes]. *)
