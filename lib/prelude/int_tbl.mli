(** Int-keyed hash table.  Probes compare keys with [Int.equal], not the
    polymorphic compare a generic [Hashtbl] calls on every probe.  Keys
    hash with {!hash}, which equals [Hashtbl.hash] on every int, so
    buckets and iteration order are the generic table's. *)

val hash : int -> int
(** [Hashtbl.hash] on an int, computed without the runtime's generic
    hash. *)

include Hashtbl.S with type key = int
