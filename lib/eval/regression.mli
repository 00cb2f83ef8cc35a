(** Bench regression gate: BENCH_*.json vs committed baselines.

    Each emitter builds its {!gate}s from its typed result and writes them
    into its document as a ["gates"] array ({!to_json}); this module reads
    that array back ({!of_document}) and compares a current document's
    gates against a baseline's.  It knows no document's layout.  Driven by
    [bench/main.exe -- regress]; wired as a CI job.

    A number read from the simulated clock or a count is a pure function
    of the seed, so it is {!exact}: a change that moves it re-takes the
    baseline. *)

type direction =
  | Higher_better  (** Fails when current < baseline × (1 − tolerance). *)
  | Lower_better  (** Fails when current > baseline × (1 + tolerance). *)
  | Exact

type gate = {
  name : string;
  value : float;  (** Non-finite values are written as [null] and fail. *)
  direction : direction;
  tolerance : float;
}

type status = Pass | Fail of string

type comparison = {
  name : string;
  baseline : float;
  current : float option;  (** [None]: the gate disappeared — a failure. *)
  status : status;
}

val wall_clock_ratio : string -> float -> direction -> float -> gate
(** The only banded gate: a ratio of two wall-clock readings from the
    same run, where machine speed cancels but noise does not. *)

val exact : string -> float -> gate
val flag : string -> bool -> gate  (** Exact; true is 1, false is 0. *)

val to_json : gate list -> string
(** The ["gates"] array, as one more field of a bench document.  Values
    are written to 9 significant digits. *)

val to_json_exact : gate list -> string
(** {!to_json} with every value written to the digits that read back as
    the same float, for exact gates over values printed in full. *)

val of_document : Simkit.Json.t -> (gate list, string) result
(** The document's ["gates"] array; [Error] when absent or malformed. *)

val compare_gates : baseline:gate list -> current:gate list -> comparison list
(** One comparison per baseline gate; direction and tolerance come from the
    baseline side.  A missing or non-finite gate fails with its reason. *)

val failures : comparison list -> comparison list

val change : comparison -> float option
(** The signed change relative to the baseline of a gate that moved,
    within its band or not. *)

val print : comparison list -> unit
(** One row per gate with its {!change}, then the count of moved gates. *)
