(** JSON string-building helpers for the exporters (no JSON dependency). *)

val escape : string -> string
(** Backslash-escape a string for inclusion between double quotes. *)

val quote : string -> string
(** [quote s] is [escape s] wrapped in double quotes. *)

val number : float -> string
(** A float as a JSON value; nan and infinities render as [null] so the
    document always parses. *)

val number_exact : float -> string
(** Like {!number}, with as many digits (at most 17) as reading the value
    back as the same float takes. *)

val number_opt : float option -> string
(** [None] renders as [null]. *)

val obj : (string * string) list -> string
(** Assemble an object from (key, already-rendered JSON value) pairs; keys
    are escaped with {!quote}.  The single shared implementation of the
    [{"k": v, ...}] punctuation used by every exporter. *)

val arr : string list -> string
(** Assemble an array from already-rendered JSON values. *)
