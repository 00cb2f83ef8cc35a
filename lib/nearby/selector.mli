(** Neighbor-selection strategies under evaluation.

    The paper's figure compares three selectors — the proposed server, the
    brute-force optimum and uniform-random choice; the motivation section
    adds the coordinate systems we include as further baselines.  A selector
    maps every peer to a set of candidate neighbors; [Eval.Measure] then
    scores the sets against the optimum. *)

type context = {
  graph : Topology.Graph.t;
  oracle : Traceroute.Route_oracle.t;
  latency : Topology.Latency.t option;
  peer_routers : Topology.Graph.node array;  (** Peer id -> attachment router. *)
}

val make_context :
  ?latency:Topology.Latency.t -> Topology.Graph.t -> peer_routers:Topology.Graph.node array -> context
(** Builds the hop-count route oracle internally. *)

type strategy =
  | Proposed of { landmarks : Topology.Graph.node array }
      (** The paper's server, joined by a full-traceroute {!Client}. *)
  | Random_peers
  | Oracle_closest  (** Brute force on true hop distances — [Dclosest]. *)
  | Vivaldi_rounds of { rounds : int; params : Coord.Vivaldi.params }
  | Gnp_landmarks of { landmarks : Topology.Graph.node array; dims : int }
  | Meridian_rings of { params : Coord.Meridian.params }
      (** Closest-node discovery over latency rings (Wong et al. 2005):
          each peer runs one ring-walk search from a random entry peer. *)
  | Hybrid of { primary : strategy; random_links : int }
      (** [k - random_links] neighbors from [primary] plus [random_links]
          uniform random ones — the standard locality/connectivity blend:
          pure proximity meshes can partition into regional islands, and a
          couple of random links restore expander-style connectivity. *)

val strategy_name : strategy -> string

val select : context -> strategy -> k:int -> rng:Prelude.Prng.t -> int array array
(** [select ctx strategy ~k ~rng] returns, for every peer id, its chosen
    neighbor ids (at most [k]; fewer only when the population is smaller
    than [k + 1]).  A peer never selects itself.  Deterministic given [rng]
    and the context. *)
