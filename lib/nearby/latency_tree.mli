(** Latency-weighted landmark path tree (DESIGN.md ablation 1).

    Identical structure to {!Path_tree} but costs are cumulative link
    latencies (milliseconds) instead of hop counts, so
    [dtree(p1, p2) = latency(p1 -> meeting) + latency(meeting -> p2)] —
    the quantity a latency-sensitive application actually cares about.
    The {!Metric_ablation} experiment (bench target [metric]) measures what
    this refinement buys over the paper's hop counts. *)

include module type of Path_tree_core.Make (struct
  type t = float

  let zero = 0.0
  let add = ( +. )
  let compare = Float.compare
  let blit = Array.blit
end)

val hops_of_route :
  latency:Topology.Latency.t -> Topology.Graph.node list -> (Topology.Graph.node * float) array
(** [hops_of_route ~latency route] pairs each router of a recorded route
    with its cumulative latency from the route head.
    @raise Not_found if consecutive routers are not linked in the latency
    table's graph. *)
