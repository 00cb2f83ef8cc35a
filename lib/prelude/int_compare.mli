(** Comparison at [int] only.

    OCaml's [=], [<] and [compare] are polymorphic: where the compiler
    cannot see an [int] at the call site (an unannotated helper, a
    parameter of a generic function), each comparison is a C call into the
    runtime's structural compare.  A module that works on ints only opens
    this one at its top, so every comparison in it is one machine
    instruction, and a comparison of any other type fails to compile
    rather than silently calling the runtime.  Physical equality ([==],
    [!=]) is left as it is, and so are [min] and [max]: here they would be
    functions, called across modules in the default (opaque) build. *)

external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external ( < ) : int -> int -> bool = "%lessthan"
external ( > ) : int -> int -> bool = "%greaterthan"
external ( <= ) : int -> int -> bool = "%lessequal"
external ( >= ) : int -> int -> bool = "%greaterequal"
external compare : int -> int -> int = "%compare"
