(** Int-keyed hash table.  Probes compare keys with [Int.equal], not the
    polymorphic compare a generic [Hashtbl] calls on every probe.  Keys
    hash with [Hashtbl.hash], so iteration order is the generic table's. *)

include Hashtbl.S with type key = int
