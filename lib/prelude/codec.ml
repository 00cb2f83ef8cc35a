module Writer = struct
  type t = Buffer.t

  let create ?(capacity = 64) () = Buffer.create capacity
  let contents = Buffer.contents
  let length = Buffer.length

  let u8 t v =
    if v < 0 || v > 255 then invalid_arg "Codec.Writer.u8: outside [0, 255]";
    Buffer.add_char t (Char.chr v)

  (* Top level, so a varint allocates no closure over the buffer. *)
  let rec emit t v =
    if v < 0x80 then Buffer.add_char t (Char.unsafe_chr v)
    else begin
      Buffer.add_char t (Char.unsafe_chr (0x80 lor (v land 0x7F)));
      emit t (v lsr 7)
    end

  let varint t v =
    if v < 0 then invalid_arg "Codec.Writer.varint: negative";
    emit t v

  let bool t b = u8 t (if b then 1 else 0)
  let int64 = Buffer.add_int64_le

  let bytes t s =
    varint t (String.length s);
    Buffer.add_string t s

  let list t encode items =
    varint t (List.length items);
    List.iter encode items

  let array t encode items =
    varint t (Array.length items);
    for i = 0 to Array.length items - 1 do
      encode t items.(i)
    done
end

(* Shared emitting surface of [Writer] and [Sizer], so an encoder can be
   written once and instantiated either to produce bytes or to count them. *)
module type SINK = sig
  type t

  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  val bool : t -> bool -> unit
  val int64 : t -> int64 -> unit
  val bytes : t -> string -> unit
  val list : t -> ('a -> unit) -> 'a list -> unit
  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
end

module Sizer = struct
  type t = { mutable count : int }

  let create () = { count = 0 }
  let size t = t.count

  (* One sizer per domain, for measuring without allocating one: callers
     read its count before and after. *)
  let key = Domain.DLS.new_key create
  let shared () = Domain.DLS.get key

  let u8 t v =
    if v < 0 || v > 255 then invalid_arg "Codec.Sizer.u8: outside [0, 255]";
    t.count <- t.count + 1

  let varint_size v =
    if v < 0 then invalid_arg "Codec.Sizer.varint: negative";
    let rec len v acc = if v < 0x80 then acc else len (v lsr 7) (acc + 1) in
    len v 1

  let varint t v = t.count <- t.count + varint_size v
  let bool t _ = t.count <- t.count + 1
  let int64 t _ = t.count <- t.count + 8
  let bytes t s = t.count <- t.count + varint_size (String.length s) + String.length s

  let list t encode items =
    varint t (List.length items);
    List.iter encode items

  let array t encode items =
    varint t (Array.length items);
    for i = 0 to Array.length items - 1 do
      encode t items.(i)
    done
end

module Reader = struct
  type t = { data : string; mutable pos : int }
  type error = Truncated | Malformed of string

  exception Failed of error

  let of_string data = { data; pos = 0 }
  let pos t = t.pos

  let seek t pos =
    if pos < 0 || pos > String.length t.data then invalid_arg "Codec.Reader.seek: outside the input";
    t.pos <- pos

  let is_exhausted t = t.pos >= String.length t.data

  (* A varint's failures, as the negative codes [varint_from] returns in
     place of a value: a varint is never negative, so a decode step
     returns a bare int and allocates nothing. *)
  let truncated = -1
  let too_long = -2
  let overflows = -3

  let error_of_code code =
    if code = truncated then Truncated
    else if code = too_long then Malformed "varint too long"
    else Malformed "varint overflows"

  (* The rest of a varint, from the byte at [t.pos]: a byte at a time, as
     [u8] would read it. *)
  let rec varint_from t shift acc =
    if shift > 56 then too_long
    else if t.pos >= String.length t.data then truncated
    else begin
      let b = Char.code (String.unsafe_get t.data t.pos) in
      t.pos <- t.pos + 1;
      (* At shift 56 only 6 more bits fit in a 63-bit OCaml int. *)
      if shift = 56 && b land 0x7F > 0x3F then overflows
      else
        let acc = acc lor ((b land 0x7F) lsl shift) in
        if b land 0x80 = 0 then acc else varint_from t (shift + 7) acc
    end

  (* Every list element takes at least one byte, so a count beyond the
     remaining input is rejected before anything is allocated for it. *)
  let count_fits t n = n <= String.length t.data - t.pos + 1
  let count_error = Malformed "list count exceeds remaining input"

  let u8 t =
    if t.pos >= String.length t.data then Error Truncated
    else begin
      let v = Char.code (String.unsafe_get t.data t.pos) in
      t.pos <- t.pos + 1;
      Ok v
    end

  let varint t =
    let v = varint_from t 0 0 in
    if v >= 0 then Ok v else Error (error_of_code v)

  let varint_exn t =
    let v = varint_from t 0 0 in
    if v >= 0 then v else raise (Failed (error_of_code v))

  let count_exn t =
    let n = varint_exn t in
    if count_fits t n then n else raise (Failed count_error)

  let bool t =
    if t.pos >= String.length t.data then Error Truncated
    else begin
      let v = Char.code (String.unsafe_get t.data t.pos) in
      t.pos <- t.pos + 1;
      match v with
      | 0 -> Ok false
      | 1 -> Ok true
      | other -> Error (Malformed (Printf.sprintf "bool byte %d" other))
    end

  let int64 t =
    if t.pos + 8 > String.length t.data then Error Truncated
    else begin
      let v = String.get_int64_le t.data t.pos in
      t.pos <- t.pos + 8;
      Ok v
    end

  let bytes t =
    let len = varint_from t 0 0 in
    if len < 0 then Error (error_of_code len)
    else if t.pos + len > String.length t.data then Error Truncated
    else begin
      let s = String.sub t.data t.pos len in
      t.pos <- t.pos + len;
      Ok s
    end

  let rec list_from t decode n acc =
    if n = 0 then Ok (List.rev acc)
    else
      match decode t with
      | Ok x -> list_from t decode (n - 1) (x :: acc)
      | Error e -> Error e

  let list t decode =
    let count = varint_from t 0 0 in
    if count < 0 then Error (error_of_code count)
    else if not (count_fits t count) then Error count_error
    else list_from t decode count []

  let error_to_string = function
    | Truncated -> "truncated input"
    | Malformed reason -> "malformed input: " ^ reason
end
