(* The codec and anti-entropy repair allocate only what they return or
   write, decode exactly as the result-monad reader did, and a repair's
   frames keep their bytes. *)

open Nearby
module Reader = Prelude.Codec.Reader
module Writer = Prelude.Codec.Writer

(* --- The result-monad reader the codec replaced, kept as a reference --- *)

module Reference = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }
  let ( let* ) r f = Result.bind r f

  let u8 t =
    if t.pos >= String.length t.data then Error Reader.Truncated
    else begin
      let v = Char.code t.data.[t.pos] in
      t.pos <- t.pos + 1;
      Ok v
    end

  let varint t =
    let rec read shift acc =
      if shift > 56 then Error (Reader.Malformed "varint too long")
      else
        let* b = u8 t in
        if shift = 56 && b land 0x7F > 0x3F then Error (Reader.Malformed "varint overflows")
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
    | other -> Error (Reader.Malformed (Printf.sprintf "bool byte %d" other))

  let int64 t =
    if t.pos + 8 > String.length t.data then Error Reader.Truncated
    else begin
      let v = String.get_int64_le t.data t.pos in
      t.pos <- t.pos + 8;
      Ok v
    end

  let bytes t =
    let* len = varint t in
    if t.pos + len > String.length t.data then Error Reader.Truncated
    else begin
      let s = String.sub t.data t.pos len in
      t.pos <- t.pos + len;
      Ok s
    end

  let count t =
    let* count = varint t in
    if count > String.length t.data - t.pos + 1 then
      Error (Reader.Malformed "list count exceeds remaining input")
    else Ok count

  let list t decode =
    let* count = count t in
    let rec loop n acc =
      if n = 0 then Ok (List.rev acc)
      else
        let* x = decode t in
        loop (n - 1) (x :: acc)
    in
    loop count []
end

(* --- Decoding as the reference did --- *)

type op = U8 | Varint | Varint_exn | Count_exn | Bool | Int64 | Bytes | Varints | Entries

let ops = [| U8; Varint; Varint_exn; Count_exn; Bool; Int64; Bytes; Varints; Entries |]

let show_op = function
  | U8 -> "u8"
  | Varint -> "varint"
  | Varint_exn -> "varint_exn"
  | Count_exn -> "count_exn"
  | Bool -> "bool"
  | Int64 -> "int64"
  | Bytes -> "bytes"
  | Varints -> "list varint"
  | Entries -> "list entry"

let show_result show = function
  | Ok v -> "Ok " ^ show v
  | Error e -> "Error " ^ Reader.error_to_string e

let show_ints vs = String.concat ";" (List.map string_of_int vs)

let show_entries es =
  String.concat " | "
    (List.map (fun (p, a, c, rs) -> Printf.sprintf "%d,%d,%d,[%s]" p a c (show_ints rs)) es)

(* One step of a decode, rendered with the position it leaves. *)
let step_reference r op =
  let open Reference in
  let entry r =
    let* peer = varint r in
    let* attach = varint r in
    let* probes = varint r in
    let* routers = list r varint in
    Ok (peer, attach, probes, routers)
  in
  let shown =
    match op with
    | U8 -> show_result string_of_int (u8 r)
    | Varint | Varint_exn -> show_result string_of_int (varint r)
    | Count_exn -> show_result string_of_int (count r)
    | Bool -> show_result string_of_bool (bool r)
    | Int64 -> show_result Int64.to_string (int64 r)
    | Bytes -> (
        match bytes r with
        | result -> show_result String.escaped result
        | exception Invalid_argument msg -> "raised " ^ msg)
    | Varints -> show_result show_ints (list r varint)
    | Entries -> show_result show_entries (list r entry)
  in
  Printf.sprintf "%s: %s @%d" (show_op op) shown r.pos

let step_codec r op =
  let open Reader in
  let exn f = match f r with v -> Ok v | exception Failed e -> Error e in
  let entry r =
    match varint r with
    | Error e -> Error e
    | Ok peer -> (
        match varint r with
        | Error e -> Error e
        | Ok attach -> (
            match varint r with
            | Error e -> Error e
            | Ok probes -> Result.map (fun routers -> (peer, attach, probes, routers)) (list r varint)))
  in
  let shown =
    match op with
    | U8 -> show_result string_of_int (u8 r)
    | Varint -> show_result string_of_int (varint r)
    | Varint_exn -> show_result string_of_int (exn varint_exn)
    | Count_exn -> show_result string_of_int (exn count_exn)
    | Bool -> show_result string_of_bool (bool r)
    | Int64 -> show_result Int64.to_string (int64 r)
    | Bytes -> (
        (* A length near [max_int] overflows the bounds check; the codec
           must fail as the reference does. *)
        match bytes r with
        | result -> show_result String.escaped result
        | exception Invalid_argument msg -> "raised " ^ msg)
    | Varints -> show_result show_ints (list r varint)
    | Entries -> show_result show_entries (list r entry)
  in
  Printf.sprintf "%s: %s @%d" (show_op op) shown (pos r)

let decode_both (data, script) =
  let reference = Reference.of_string data and codec = Reader.of_string data in
  List.for_all
    (fun op ->
      let expected = step_reference reference op and got = step_codec codec op in
      if expected <> got then
        QCheck.Test.fail_reportf "%S: reference %s, codec %s" data expected got
      else true)
    script

let entry_bytes entries =
  let w = Writer.create () in
  Writer.list w
    (fun (peer, attach, probes, routers) ->
      Writer.varint w peer;
      Writer.varint w attach;
      Writer.varint w probes;
      Writer.array w Writer.varint routers)
    entries;
  Writer.contents w

(* Inputs: random bytes, and encoded random entries, whole, cut short or
   with one byte replaced. *)
let gen_input =
  let open QCheck.Gen in
  let small = oneof [ int_bound 200; int_bound 100_000; map (fun v -> v land max_int) int ] in
  let entry =
    map
      (fun (peer, attach, probes, routers) -> (peer, attach, probes, Array.of_list routers))
      (quad small small small (list_size (int_bound 6) small))
  in
  let damaged data =
    let n = String.length data in
    if n = 0 then return data
    else
      oneof
        [
          return data;
          map (fun cut -> String.sub data 0 cut) (int_bound (n - 1));
          map2
            (fun at c -> String.mapi (fun i x -> if i = at then c else x) data)
            (int_bound (n - 1)) char;
        ]
  in
  let data =
    oneof
      [
        string_size ~gen:char (int_bound 24);
        string_size ~gen:(oneofl [ '\x00'; '\x01'; '\x7f'; '\x80'; '\xbf'; '\xff' ]) (int_bound 24);
        list_size (int_bound 4) entry >>= fun es -> damaged (entry_bytes es);
      ]
  in
  pair data (list_size (1 -- 6) (oneofa ops))

let qcheck_reader_matches_reference =
  QCheck.Test.make ~name:"reader = result-monad reference" ~count:3000
    (QCheck.make
       ~print:(fun (data, script) ->
         Printf.sprintf "%S [%s]" data (String.concat "; " (List.map show_op script)))
       gen_input)
    decode_both

(* --- Allocation guards --- *)

(* [Gc.minor_words] is read unboxed, so the probe allocates nothing. *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let varint_bytes values =
  let w = Writer.create () in
  Array.iter (Writer.varint w) values;
  Writer.contents w

let spread_values n = Array.init n (fun i -> (i * 2654435761) land ((1 lsl (7 * (1 + (i mod 8)))) - 1))

(* A varint decode allocates its [Ok] box (2 words) and nothing per byte;
   [varint_exn] allocates nothing. *)
let test_varint_decode_allocates_its_box () =
  let values = spread_values 10_000 in
  let data = varint_bytes values in
  let sum = ref 0 in
  let r = Reader.of_string data in
  let boxed =
    words (fun () ->
        for _ = 1 to 10_000 do
          match Reader.varint r with Ok v -> sum := !sum + v | Error _ -> ()
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "10,000 varints allocate %.0f words, at most 20,000" boxed)
    true (boxed <= 20_000.0);
  let r = Reader.of_string data in
  let bare =
    words (fun () ->
        for _ = 1 to 10_000 do
          sum := !sum + Reader.varint_exn r
        done)
  in
  Alcotest.(check (float 0.0)) "10,000 varint_exn allocate nothing" 0.0 bare;
  Alcotest.(check int) "the same values" (2 * Array.fold_left ( + ) 0 values) !sum

(* A varint into a buffer with room allocates nothing. *)
let test_varint_encode_allocates_nothing () =
  let values = spread_values 10_000 in
  let w = Writer.create ~capacity:(9 * 10_000) () in
  let spent =
    words (fun () ->
        for i = 0 to 10_000 - 1 do
          Writer.varint w values.(i)
        done)
  in
  Alcotest.(check (float 0.0)) "10,000 varints into a pre-sized buffer" 0.0 spent;
  Alcotest.(check string) "the same bytes" (varint_bytes values) (Writer.contents w)

(* Applying a partial snapshot whose entries a server already holds writes
   nothing, and what it allocates does not grow with the entries. *)
let test_held_entries_apply_in_constant_words () =
  let case peers =
    let _, oracle, source = Test_snapshot.populated ~seed:11 ~peers in
    let held =
      match Server.restore oracle (Server.snapshot source) with
      | Ok s -> s
      | Error e -> Alcotest.fail e
    in
    let buckets = List.sort_uniq compare (List.init peers Server.bucket_of) in
    let data = Server.snapshot_buckets source buckets in
    let apply replace () =
      match Server.apply_buckets ?replace held data with
      | Ok 0 -> ()
      | Ok n -> Alcotest.failf "%d peers: %d entries written" peers n
      | Error e -> Alcotest.fail e
    in
    (apply None, apply (Some buckets))
  in
  let few_add, few_replace = case 10 and many_add, many_replace = case 1_000 in
  (* Warm the repair's reused buffers at the larger size first. *)
  List.iter (fun f -> f ()) [ many_add; many_replace; few_add; few_replace ];
  List.iter
    (fun (what, few, many) ->
      let few = words few and many = words many in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words for 10 held entries, %.0f for 1,000" what few many)
        true (many <= few +. 8.0))
    [ ("added", few_add, many_add); ("replacing their buckets", few_replace, many_replace) ]

(* --- Frames keep their bytes --- *)

(* A fixed server's snapshot, bucket summary and partial snapshot, pinned
   by length and MD5 of the bytes the result-monad codec wrote. *)
let test_frames_pinned () =
  let _, _, server = Test_snapshot.populated ~seed:3 ~peers:60 in
  let pin name (length, md5) data =
    Alcotest.(check (pair int string)) name (length, md5)
      (String.length data, Digest.to_hex (Digest.string data))
  in
  pin "snapshot" (760, "cf55024c72c50d403ffc865ed60b4d70") (Server.snapshot server);
  pin "bucket summary" (4098, "ae3854cd11e2d25cdb75127a03f7807e") (Server.bucket_summary server);
  pin "partial snapshot" (277, "ddba8fced71d8f24fa9ef1dddf686216")
    (Server.snapshot_buckets server (List.init 40 (fun i -> Server.bucket_of (i * 3))))

let suite =
  ( "codec",
    [
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
        qcheck_reader_matches_reference;
      Alcotest.test_case "varint decode allocates only its box" `Quick
        test_varint_decode_allocates_its_box;
      Alcotest.test_case "varint encode allocates nothing" `Quick
        test_varint_encode_allocates_nothing;
      Alcotest.test_case "held entries apply in constant words" `Quick
        test_held_entries_apply_in_constant_words;
      Alcotest.test_case "frames pinned" `Quick test_frames_pinned;
    ] )
