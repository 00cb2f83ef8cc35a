(** Decreased-traceroute strategies (paper §3, extension E4).

    "This tool could be a decreased version of the original one because we
    are only interested with some routers along the path."  Each strategy
    keeps a subset of a recorded path's hops; the management server then
    works with the reduced path.  Keeping fewer hops costs accuracy but
    saves probes — {!probe_cost} quantifies the saving. *)

type strategy =
  | Full  (** Keep every hop. *)
  | Every_k of int  (** Keep hops at positions 0, k, 2k, ... plus the last hop. *)
  | Last_k of int  (** Keep only the [k] hops nearest the landmark (where the
                       meeting points live). *)
  | First_k of int  (** Keep only the [k] hops nearest the peer (negative
                        control: meeting points are rarely here). *)
  | Min_degree of int
      (** Keep routers with degree >= threshold — "core only".  Needs the
          graph; models a tool that only records well-connected routers
          (e.g. those appearing in many cached traces). *)

val apply : ?graph:Topology.Graph.t -> strategy -> Path.t -> Path.t
(** Reduce a path.  Source and destination hops are always kept when present.
    [Full] returns the path itself, not a copy.
    @raise Invalid_argument when [Min_degree] is used without [graph], or a
    strategy parameter is < 1. *)

val probe_cost : strategy -> full_hops:int -> int
(** TTL packets a decreased tool would actually send for a route of
    [full_hops] links: [Every_k]/[Last_k]/[First_k] probe only the positions
    they keep; [Min_degree] still probes everything (filtering happens after
    the replies arrive). *)

val describe : strategy -> string
