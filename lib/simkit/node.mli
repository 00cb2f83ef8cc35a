(** Peer lifecycle state.

    A peer is an end host attached to a (degree-1) router of the map.  Its
    lifecycle is [Joining -> Up -> (Departed | Failed)]; [Failed] peers
    vanish silently (no goodbye message), which is what the handover logic
    (extension E3) must cope with. *)

type state = Joining | Up | Departed | Failed

type t = {
  id : int;  (** Dense peer id, unique within a simulation. *)
  mutable attach_router : Topology.Graph.node;
      (** Mutable to support mobility: a handover re-attaches the peer. *)
  mutable state : state;
  mutable joined_at : float;  (** Simulated time of the last join start. *)
  mutable up_at : float;  (** Time the join completed; [nan] until then. *)
}

val create : id:int -> attach_router:Topology.Graph.node -> now:float -> t
(** A peer in [Joining] state. *)

val mark_up : t -> now:float -> unit
(** @raise Invalid_argument unless currently [Joining]. *)

val depart : t -> unit
(** Graceful leave.  @raise Invalid_argument when not [Up] or [Joining]. *)

val fail : t -> unit
(** Silent crash; allowed in any live state.
    @raise Invalid_argument when already [Departed] or [Failed]. *)

val rejoin : t -> attach_router:Topology.Graph.node -> now:float -> unit
(** Mobility handover: a departed/failed peer re-enters [Joining] at a new
    attachment router. *)

val is_live : t -> bool
(** [Joining] or [Up]. *)

val setup_delay : t -> float
(** [up_at - joined_at] for the latest join; [nan] while still joining. *)
