(** Breadth-first traversals: hop distances and shortest-path trees.

    Hop distance is the paper's ground-truth metric (the quality sums [D],
    [Dclosest], [Drandom] are sums of hop distances), so these routines are
    the reference against which the landmark inference is judged. *)

val distances : Graph.t -> Graph.node -> int array
(** [distances g src] maps every node to its hop distance from [src];
    unreachable nodes get [max_int]. *)

val distance : Graph.t -> Graph.node -> Graph.node -> int
(** Single-pair hop distance with early exit; [max_int] when unreachable. *)

val distances_within : Graph.t -> Graph.node -> int -> (Graph.node * int) list
(** [distances_within g src radius] is every node at hop distance <= radius,
    paired with its distance, in increasing distance order. *)

val tree : Graph.t -> Graph.node -> int array * int array
(** BFS tree, as [(parents, depths)] from one traversal: [parents.(v)] is
    the predecessor of [v] on a deterministic (lowest-id-first) shortest
    path from the source, [-1] at the source and at unreachable nodes;
    [depths.(v)] is [v]'s hop distance from the source ([max_int] when
    unreachable), as {!distances} gives it. *)

val path_to : parents:int array -> src:Graph.node -> Graph.node -> Graph.node list
(** [path_to ~parents ~src v] reconstructs the node sequence [src .. v] from a
    parent array rooted at [src], inclusive of both endpoints.  Empty when [v]
    was unreachable. *)

val eccentricity : Graph.t -> Graph.node -> int
(** Largest finite hop distance from the node. *)

val mean_pairwise_distance : Graph.t -> samples:int -> rng:Prelude.Prng.t -> float
(** Monte-Carlo estimate of the mean hop distance between distinct reachable
    random pairs; exact iteration is quadratic and unnecessary for the
    summary statistics we report. *)
