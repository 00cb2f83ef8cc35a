module Writer = struct
  type t = Buffer.t

  let create ?(capacity = 64) () = Buffer.create capacity
  let contents = Buffer.contents
  let length = Buffer.length

  let u8 t v =
    if v < 0 || v > 255 then invalid_arg "Codec.Writer.u8: outside [0, 255]";
    Buffer.add_char t (Char.chr v)

  let varint t v =
    if v < 0 then invalid_arg "Codec.Writer.varint: negative";
    let rec emit v =
      if v < 0x80 then Buffer.add_char t (Char.chr v)
      else begin
        Buffer.add_char t (Char.chr (0x80 lor (v land 0x7F)));
        emit (v lsr 7)
      end
    in
    emit v

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

  let of_string data = { data; pos = 0 }
  let is_exhausted t = t.pos >= String.length t.data

  let ( let* ) r f = Result.bind r f

  let u8 t =
    if t.pos >= String.length t.data then Error Truncated
    else begin
      let v = Char.code t.data.[t.pos] in
      t.pos <- t.pos + 1;
      Ok v
    end

  let varint t =
    let rec read shift acc =
      if shift > 56 then Error (Malformed "varint too long")
      else
        let* b = u8 t in
        (* At shift 56 only 6 more bits fit in a 63-bit OCaml int. *)
        if shift = 56 && b land 0x7F > 0x3F then Error (Malformed "varint overflows")
        else begin
          let acc = acc lor ((b land 0x7F) lsl shift) in
          if b land 0x80 = 0 then Ok acc else read (shift + 7) acc
        end
    in
    read 0 0

  let bool t =
    let* v = u8 t in
    match v with
    | 0 -> Ok false
    | 1 -> Ok true
    | other -> Error (Malformed (Printf.sprintf "bool byte %d" other))

  let int64 t =
    if t.pos + 8 > String.length t.data then Error Truncated
    else begin
      let v = String.get_int64_le t.data t.pos in
      t.pos <- t.pos + 8;
      Ok v
    end

  let bytes t =
    let* len = varint t in
    if t.pos + len > String.length t.data then Error Truncated
    else begin
      let s = String.sub t.data t.pos len in
      t.pos <- t.pos + len;
      Ok s
    end

  let list t decode =
    let* count = varint t in
    if count > String.length t.data - t.pos + 1 then
      (* Every element takes at least one byte; reject absurd counts before
         allocating. *)
      Error (Malformed "list count exceeds remaining input")
    else begin
      let rec loop n acc =
        if n = 0 then Ok (List.rev acc)
        else
          let* x = decode t in
          loop (n - 1) (x :: acc)
      in
      loop count []
    end

  let error_to_string = function
    | Truncated -> "truncated input"
    | Malformed reason -> "malformed input: " ^ reason
end
