(** Weighted single-source shortest paths.

    Latency-weighted distances back the Vivaldi/GNP baselines and the
    latency-weighted variant of the path-tree metric (ablation 1 in
    DESIGN.md).  Edge weights come from a {!Latency.t} assignment. *)

val distances : Graph.t -> weight:(Graph.node -> Graph.node -> float) -> Graph.node -> float array
(** [distances g ~weight src] maps every node to its weighted distance from
    [src]; unreachable nodes get [infinity].  @raise Invalid_argument on a
    negative edge weight. *)

val distance :
  Graph.t -> weight:(Graph.node -> Graph.node -> float) -> Graph.node -> Graph.node -> float
(** Single-pair weighted distance with early exit. *)

val tree :
  Graph.t -> weight:(Graph.node -> Graph.node -> float) -> Graph.node -> int array * int array
(** Shortest-path tree, as [(parents, depths)] from one run: [parents]
    breaks ties deterministically (on equal distance the lower-id parent
    wins) and maps the source and unreachable nodes to [-1]; [depths.(v)]
    is the number of links from [v] to the source along [parents] ([0] at
    the source, [max_int] when unreachable). *)
