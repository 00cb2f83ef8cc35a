(** Wire format of the discovery protocol.

    What actually crosses the network in a deployment: the round-1 pings,
    the newcomer's recorded path upload, the server's neighbor reply, and
    the replication of each upload to the other replicas.
    Binary, versioned, and decodable from untrusted bytes (decoding never
    raises).  The simulator itself passes values in memory; this module
    exists so the byte sizes charged to {!Simkit.Transport} are honest and
    so a real implementation could interoperate. *)

type message =
  | Ping_request of { nonce : int }
  | Ping_reply of { nonce : int }
  | Path_report of { peer : int; path : Traceroute.Path.t }
      (** Round 2 upload: the traceroute output, anonymous hops included. *)
  | Neighbor_request of { peer : int; k : int }
  | Neighbor_reply of { peer : int; neighbors : (int * int) list }
      (** [(peer id, inferred distance)], ascending.  A distance of at
          least [0x3FFFFFF] (a cross-tree top-up entry's [max_int]) is sent
          as [0x3FFFFFF], four bytes, and decodes as [max_int]. *)
  | Leave of { peer : int }
  | Path_report_batch of { reports : (int * Traceroute.Path.t) list }
      (** A whole batch of registrations as one message instead of one
          {!Path_report} each — varint-packed, it costs a fraction of n
          separate reports.  {!Server.register_measured_batch} charges it. *)
  | Replica_prefix of { peer : int; donor : int; probes : int; prefix : Topology.Graph.node array }
      (** Replication of a fresh registration without the part of its
          route the receiving replica already stores: the routers from the
          attach router up to and including the first one where the stored
          member [donor]'s route runs on to the landmark the same way, and
          the join's probe cost.  The replica completes the route from its
          own copy of the donor's ({!Server.register_replica_prefix}). *)
  | Replica_nack of { peer : int }
      (** A replica's refusal of a {!Replica_prefix} it cannot complete;
          the primary answers with the full {!Path_report}. *)
  | Path_prefix of {
      peer : int;
      k : int;
      landmark : int;
      probes : int;
      prefix : Topology.Graph.node array;
    }
      (** A join's first-round upload and its neighbor request in one
          frame: the [k] neighbors wanted, the routers that answered the
          traceroute toward [landmark] up to its first hops, from the
          attach router on, and the probes spent so far.  The server
          completes the route from the first of them its landmark tree
          holds ({!Server.register_prefix}) and answers with a
          {!Neighbor_reply}, or asks for the rest with {!Continue}. *)
  | Continue of { peer : int }
      (** The server's answer to a {!Path_prefix} none of whose routers
          its landmark tree holds: the client traces the rest of the route
          and uploads the whole trace as a {!Path_report}. *)

val protocol_version : int

val encode : message -> string
(** Version byte, tag byte, then the payload. *)

val decode : string -> (message, string) result
(** Total: any byte string yields [Ok] or [Error reason]; decoding consumes
    the whole buffer (trailing garbage is an error). *)

val byte_size : message -> int
(** Exactly [String.length (encode m)], computed by a counting pass over
    the same emitter ({!Prelude.Codec.Sizer}) — no buffer is allocated,
    and sizing a {!Path_report}, {!Replica_prefix}, {!Replica_nack},
    {!Path_prefix}, {!Continue}, {!Neighbor_request}, {!Neighbor_reply}
    or {!Ping_request} allocates nothing at all.  Used
    by the simulator to charge realistic message sizes on hot paths. *)

val neighbor_request_size : peer:int -> k:int -> int
(** [byte_size (Neighbor_request { peer; k })], from the same emitter,
    without building the message; allocates nothing. *)

val neighbor_reply_size : peer:int -> (int * int) list -> int
(** [byte_size (Neighbor_reply { peer; neighbors })], from the same
    emitter, without building the message; allocates nothing. *)

val kind : message -> string
(** The wire-observability label for the message family — the [kind=]
    value its bytes are charged under in [wire_bytes_total]: ["ping"],
    ["path_report"] (also {!Replica_prefix} and {!Replica_nack}: the
    replication of a report is path-report traffic; and {!Path_prefix} and
    {!Continue}, the first round of a report, so a first round's [k]
    counts as path-report bytes), ["query"] (neighbor request), ["reply"] (neighbor reply), ["leave"],
    ["path_report_batch"]. *)

val equal : message -> message -> bool
val pp : Format.formatter -> message -> unit
