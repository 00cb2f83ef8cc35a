(** Binary encoding primitives for wire messages.

    Compact, endian-explicit and allocation-light: unsigned LEB128 varints
    for integers (path distances and node ids are small), length-prefixed
    byte strings.  The reader never reads past the buffer; all failures are
    reported as [Error], not exceptions, because the input is untrusted
    network data -- except by the [_exn] readers, which raise
    {!Reader.Failed} for a decoder that checks many values under one
    handler.

    A decode or encode step allocates only its result: a reader's [Ok]
    box (and the value it holds when that is boxed: an [int64], a
    string, a list), an [Error] on failure, and nothing at all for an
    [_exn] reader's int or a writer's byte when the buffer has room. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val contents : t -> string
  val length : t -> int
  val u8 : t -> int -> unit
  (** @raise Invalid_argument outside [0, 255]. *)

  val varint : t -> int -> unit
  (** Unsigned LEB128; @raise Invalid_argument on negative input. *)

  val bool : t -> bool -> unit
  val int64 : t -> int64 -> unit
  (** Fixed-width: eight bytes, little-endian — for values such as hashes
      whose bits are uniformly spread, where a varint would only grow. *)

  val bytes : t -> string -> unit
  (** Varint length prefix followed by the raw bytes. *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** Varint count followed by each element.  The element encoder is
      handed the writer, so a closed function encodes without a closure
      per call. *)

  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
  (** The bytes {!list} writes for the array's elements. *)
end

module type SINK = sig
  type t

  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  val bool : t -> bool -> unit
  val int64 : t -> int64 -> unit
  val bytes : t -> string -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
end
(** The emitting surface shared by {!Writer} and {!Sizer}.  Encoders written
    against [SINK] can be instantiated once to produce bytes and once to
    measure them without allocating a buffer. *)

module Sizer : sig
  type t

  val create : unit -> t
  val size : t -> int
  (** Bytes the same sequence of calls would have appended to a {!Writer}. *)

  val shared : unit -> t
  (** The calling domain's own sizer, never reset: measure a value as the
      difference of {!size} before and after emitting it, with no sizer
      allocated per measurement. *)

  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  val bool : t -> bool -> unit
  val int64 : t -> int64 -> unit
  val bytes : t -> string -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
end

module Reader : sig
  type t

  type error = Truncated | Malformed of string

  exception Failed of error
  (** Raised by the [_exn] readers where their result-returning
      counterparts return [Error]. *)

  val of_string : string -> t
  val pos : t -> int
  (** Bytes read so far, including those of a read that failed. *)

  val seek : t -> int -> unit
  (** Continue reading at an earlier {!pos}, to decode the same bytes a
      second time.  @raise Invalid_argument outside the input. *)

  val is_exhausted : t -> bool
  val u8 : t -> (int, error) result
  val varint : t -> (int, error) result

  val varint_exn : t -> int
  (** {!varint}'s value without its [Ok] box, leaving {!pos} where
      {!varint} does.  @raise Failed with {!varint}'s error. *)

  val count_exn : t -> int
  (** The element count {!list} reads first, with {!list}'s check that
      every element could still take a byte.  @raise Failed with the error
      {!list} returns at its count. *)

  val bool : t -> (bool, error) result
  val int64 : t -> (int64, error) result
  val bytes : t -> (string, error) result
  val list : t -> (t -> ('a, error) result) -> ('a list, error) result
  val error_to_string : error -> string
end
