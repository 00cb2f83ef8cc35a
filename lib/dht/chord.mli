(** Chord ring (Stoica et al., SIGCOMM 2001) — the overlay substrate for
    decentralizing the management server.

    The paper centralizes path storage in one server and gestures at
    super-peers; the step beyond both is a DHT: bucket ownership spread
    over the participants themselves, every lookup O(log N) overlay hops.
    This is the stabilized state of a Chord ring — successor lists and
    finger tables computed exactly for a static membership (the simulation
    joins/leaves rebuild; we are measuring lookup behaviour, not
    stabilization dynamics).

    Identifiers live in [\[0, 2^bits)]; keys and members are hashed into
    the same space with a splitmix-based hash. *)

type t

val bits : int
(** Identifier-space width (32). *)

val hash_key : int -> int
(** Deterministic hash of an integer key (e.g. a router id) into the
    identifier space. *)

val build : ?virtual_nodes:int -> int array -> t
(** [build members] constructs the stabilized ring over the given member
    ids (application-level ids, e.g. DHT-node indices; hashed internally).
    Duplicate members are rejected.  [virtual_nodes] (default 1) places
    each member at that many independent ring positions — the standard
    consistent-hashing fix for segment-size imbalance.
    @raise Invalid_argument on an empty or duplicate member array, or
    [virtual_nodes < 1]. *)

val member_count : t -> int
(** Distinct members (not virtual positions). *)

val members : t -> int array
(** Distinct member ids, ascending. *)

val owner_of : t -> key:int -> int
(** The member whose ring segment covers [hash_key key] (its successor). *)

val lookup : t -> from:int -> key:int -> int * int
(** [(owner, overlay_hops)]: iterative finger-table routing from member
    [from] to the owner of [key].  Hops = number of overlay forwardings
    (0 when [from] already owns the key).
    @raise Invalid_argument when [from] is not a member. *)

val check_invariants : t -> unit
(** Fingers point at the true successors of their targets; successor
    pointers form a single cycle.  @raise Failure on violation. *)
