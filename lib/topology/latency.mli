(** Per-link latency assignment.

    The paper works in hop counts, but its baselines (Vivaldi, GNP) and the
    setup-delay experiment need continuous link latencies.  Latencies are
    assigned once per graph, symmetric, deterministic under a seed. *)

type t

type model =
  | Uniform of { lo : float; hi : float }
      (** i.i.d. uniform per link, in milliseconds. *)
  | Core_weighted of { core_ms : float; edge_ms : float; threshold : int }
      (** Links whose both endpoints have degree >= [threshold] are fast core
          links ([core_ms] mean), others slower access links ([edge_ms] mean);
          each link's value is exponentially distributed around its mean.
          This mirrors the common observation that access links dominate
          end-to-end latency. *)
  | Hop_count  (** Every link costs exactly 1.0: weighted = hop distance. *)

val assign : Graph.t -> model -> seed:int -> t
val get : t -> Graph.node -> Graph.node -> float
(** Latency of an existing link.  @raise Not_found if the graph has no such
    edge. *)

val weight_fn : t -> Graph.node -> Graph.node -> float
(** [get] packaged for {!Dijkstra}. *)

val path_latency : t -> Graph.node array -> float
(** Sum over consecutive pairs of a router path, left to right. *)
