(* Codec primitives and the protocol wire format. *)

open Prelude

(* --- Codec --- *)

let roundtrip_varint v =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w v;
  match Codec.Reader.varint (Codec.Reader.of_string (Codec.Writer.contents w)) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_varint_known () =
  let bytes_of v =
    let w = Codec.Writer.create () in
    Codec.Writer.varint w v;
    Codec.Writer.contents w
  in
  Alcotest.(check string) "0 is one byte" "\x00" (bytes_of 0);
  Alcotest.(check string) "127 fits one byte" "\x7f" (bytes_of 127);
  Alcotest.(check string) "128 takes two" "\x80\x01" (bytes_of 128);
  Alcotest.(check int) "300 encoding length" 2 (String.length (bytes_of 300));
  Alcotest.check_raises "negative" (Invalid_argument "Codec.Writer.varint: negative") (fun () ->
      ignore (bytes_of (-1)))

let qcheck_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound max_int)
    roundtrip_varint

let test_u8_bounds () =
  let w = Codec.Writer.create () in
  Alcotest.check_raises "256" (Invalid_argument "Codec.Writer.u8: outside [0, 255]") (fun () ->
      Codec.Writer.u8 w 256)

let test_bytes_roundtrip () =
  let w = Codec.Writer.create () in
  Codec.Writer.bytes w "hello";
  Codec.Writer.bytes w "";
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check bool) "first" true (Codec.Reader.bytes r = Ok "hello");
  Alcotest.(check bool) "second empty" true (Codec.Reader.bytes r = Ok "");
  Alcotest.(check bool) "exhausted" true (Codec.Reader.is_exhausted r)

let test_int64_fixed_width () =
  let values = [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x0123456789abcdefL ] in
  let w = Codec.Writer.create () and sz = Codec.Sizer.create () in
  List.iter
    (fun v ->
      Codec.Writer.int64 w v;
      Codec.Sizer.int64 sz v)
    values;
  let data = Codec.Writer.contents w in
  Alcotest.(check int) "eight bytes each" (8 * List.length values) (String.length data);
  Alcotest.(check int) "sizer agrees" (String.length data) (Codec.Sizer.size sz);
  let r = Codec.Reader.of_string data in
  List.iter
    (fun v -> Alcotest.(check bool) (Int64.to_string v) true (Codec.Reader.int64 r = Ok v))
    values;
  let short = Codec.Reader.of_string (String.make 7 '\x00') in
  Alcotest.(check bool) "seven bytes truncated" true
    (Codec.Reader.int64 short = Error Codec.Reader.Truncated)

let test_reader_truncated () =
  let r = Codec.Reader.of_string "" in
  Alcotest.(check bool) "u8 on empty" true (Codec.Reader.u8 r = Error Codec.Reader.Truncated);
  (* Length prefix promising more than available. *)
  let w = Codec.Writer.create () in
  Codec.Writer.varint w 100;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check bool) "bytes truncated" true (Codec.Reader.bytes r = Error Codec.Reader.Truncated)

let test_reader_malformed_varint () =
  (* Ten continuation bytes: longer than any 63-bit value. *)
  let r = Codec.Reader.of_string (String.make 10 '\xff') in
  match Codec.Reader.varint r with
  | Error (Codec.Reader.Malformed _) -> ()
  | Ok _ | Error Codec.Reader.Truncated -> Alcotest.fail "expected malformed"

(* The reader must reject varints whose VALUE cannot be represented, not
   just absurdly long encodings: 9 continuation bytes put the 10th byte's
   payload at bit 63, so anything above 0x3F there overflows OCaml's
   63-bit int. *)
let test_varint_overflow_edges () =
  let decode s = Codec.Reader.varint (Codec.Reader.of_string s) in
  let expect_malformed what s =
    match decode s with
    | Error (Codec.Reader.Malformed _) -> ()
    | Ok v -> Alcotest.fail (Printf.sprintf "%s decoded as %d" what v)
    | Error Codec.Reader.Truncated -> Alcotest.fail (what ^ " reported truncated")
  in
  (* max_int = 2^62 - 1 encodes as 8 continuation bytes + 0x3F: the largest
     legal varint, and it must round-trip. *)
  Alcotest.(check bool) "max_int roundtrips" true (roundtrip_varint max_int);
  (* Same length, final payload one past the top: 2^62 overflows. *)
  expect_malformed "2^62" (String.make 8 '\x80' ^ "\x40");
  (* An eleventh byte is past any 63-bit value no matter its payload. *)
  expect_malformed "10 continuation bytes" (String.make 10 '\xff');
  expect_malformed "over-long zero" (String.make 9 '\x80' ^ "\x01")

(* A multi-byte varint cut inside its continuation bytes is Truncated —
   the transport lost data — never Malformed, and never a value. *)
let test_varint_truncated_multibyte () =
  let expect_truncated what s =
    match Codec.Reader.varint (Codec.Reader.of_string s) with
    | Error Codec.Reader.Truncated -> ()
    | Ok v -> Alcotest.fail (Printf.sprintf "%s decoded as %d" what v)
    | Error (Codec.Reader.Malformed m) -> Alcotest.fail (what ^ " reported malformed: " ^ m)
  in
  expect_truncated "empty input" "";
  expect_truncated "lone continuation byte" "\x80";
  expect_truncated "three of four bytes" "\xff\xff\xff";
  expect_truncated "seven continuation bytes" (String.make 7 '\x80')

let test_bool_roundtrip () =
  let w = Codec.Writer.create () in
  Codec.Writer.bool w true;
  Codec.Writer.bool w false;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check bool) "true" true (Codec.Reader.bool r = Ok true);
  Alcotest.(check bool) "false" true (Codec.Reader.bool r = Ok false);
  let bad = Codec.Reader.of_string "\x07" in
  (match Codec.Reader.bool bad with
  | Error (Codec.Reader.Malformed _) -> ()
  | _ -> Alcotest.fail "expected malformed bool")

let test_list_roundtrip () =
  let w = Codec.Writer.create () in
  Codec.Writer.list w (Codec.Writer.varint w) [ 1; 2; 300 ];
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check bool) "list" true (Codec.Reader.list r Codec.Reader.varint = Ok [ 1; 2; 300 ])

let test_list_absurd_count () =
  (* Count of 2^20 with a 2-byte body must be rejected before allocation. *)
  let w = Codec.Writer.create () in
  Codec.Writer.varint w (1 lsl 20);
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  match Codec.Reader.list r Codec.Reader.varint with
  | Error (Codec.Reader.Malformed _) -> ()
  | _ -> Alcotest.fail "expected malformed count"

(* --- Wire --- *)

open Nearby

let sample_messages =
  [
    Wire.Ping_request { nonce = 0 };
    Wire.Ping_reply { nonce = 123456 };
    Wire.Path_report
      {
        peer = 42;
        path =
          {
            Traceroute.Path.src = 7;
            dst = 99;
            hops = [| Traceroute.Path.Known 7; Traceroute.Path.Anonymous; Traceroute.Path.Known 99 |];
          };
      };
    Wire.Neighbor_request { peer = 3; k = 5 };
    Wire.Neighbor_reply { peer = 3; neighbors = [ (9, 4); (12, 6) ] };
    Wire.Neighbor_reply { peer = 0; neighbors = [] };
    Wire.Leave { peer = 77 };
    Wire.Path_report_batch { reports = [] };
    Wire.Path_report_batch
      {
        reports =
          [
            (3, { Traceroute.Path.src = 1; dst = 9; hops = [| Traceroute.Path.Known 9 |] });
            ( 4,
              {
                Traceroute.Path.src = 2;
                dst = 9;
                hops = [| Traceroute.Path.Anonymous; Traceroute.Path.Known 9 |];
              } );
          ];
      };
    Wire.Replica_prefix { peer = 42; donor = 9; probes = 14; prefix = [| 7 |] };
    Wire.Replica_prefix { peer = 300; donor = 0; probes = 0; prefix = [| 7; 130; 99 |] };
    Wire.Replica_nack { peer = 42 };
    Wire.Path_prefix { peer = 42; landmark = 99; probes = 10; prefix = [| 7; 130 |] };
    Wire.Path_prefix { peer = 0; landmark = 7; probes = 0; prefix = [| 7 |] };
    Wire.Continue { peer = 42 };
  ]

let test_wire_roundtrip () =
  List.iter
    (fun m ->
      match Wire.decode (Wire.encode m) with
      | Ok m' ->
          Alcotest.(check bool) (Format.asprintf "roundtrip %a" Wire.pp m) true (Wire.equal m m')
      | Error e -> Alcotest.fail e)
    sample_messages

let test_wire_every_truncation_fails_cleanly () =
  List.iter
    (fun m ->
      let encoded = Wire.encode m in
      for len = 0 to String.length encoded - 1 do
        match Wire.decode (String.sub encoded 0 len) with
        | Error _ -> ()
        | Ok m' ->
            Alcotest.fail
              (Format.asprintf "prefix %d of %a decoded as %a" len Wire.pp m Wire.pp m')
      done)
    sample_messages

let test_wire_trailing_garbage () =
  let encoded = Wire.encode (Wire.Leave { peer = 1 }) in
  match Wire.decode (encoded ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted"

let test_wire_bad_version_and_tag () =
  (match Wire.decode "\x09\x00\x00" with
  | Error e -> Alcotest.(check bool) "version error mentioned" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "bad version accepted");
  match Wire.decode "\x01\x63\x00" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag accepted"

let test_wire_sizes_reasonable () =
  (* A 12-hop path report stays well under a typical MTU. *)
  let hops = Array.init 13 (fun i -> Traceroute.Path.Known (i * 17)) in
  let m = Wire.Path_report { peer = 1000; path = { Traceroute.Path.src = 0; dst = 204; hops } } in
  let size = Wire.byte_size m in
  Alcotest.(check bool) (Printf.sprintf "path report is %d bytes" size) true (size < 64);
  Alcotest.(check int) "size = encode length" (String.length (Wire.encode m)) size

(* Sizing a report walks its hop array in place: no list, no sizer, no
   closure per call.  The bytes are the ones the list encoding wrote. *)
let test_wire_report_size_allocates_nothing () =
  let hops =
    Array.init 13 (fun i ->
        if i = 6 then Traceroute.Path.Anonymous else Traceroute.Path.Known (i * 150))
  in
  let m = Wire.Path_report { peer = 1000; path = { Traceroute.Path.src = 0; dst = 1800; hops } } in
  Alcotest.(check string) "encoded bytes"
    "\x01\x02\xe8\x07\x00\x88\x0e\x0d\x01\x97\x01\xad\x02\xc3\x03\xd9\x04\xef\x05\x00\x9b\x08\xb1\x09\xc7\x0a\xdd\x0b\xf3\x0c\x89\x0e"
    (Wire.encode m);
  let size = Wire.byte_size m in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (Wire.byte_size m))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "size = encode length" (String.length (Wire.encode m)) size;
  Alcotest.(check (float 0.0)) "minor words over 1,000 sizings" 0.0 words

(* Tags 7 and 8, the replication of a report as the prefix a replica
   cannot rebuild, and a replica's refusal of one: the exact bytes, the
   path-report kind, and sizing without allocating, as for a full report
   (round trips and truncations run over [sample_messages]). *)
let test_wire_replica_messages () =
  let prefix =
    Wire.Replica_prefix { peer = 1000; donor = 300; probes = 21; prefix = [| 150; 1800 |] }
  and nack = Wire.Replica_nack { peer = 1000 } in
  Alcotest.(check string) "prefix bytes" "\x01\x07\xe8\x07\xac\x02\x15\x02\x96\x01\x88\x0e"
    (Wire.encode prefix);
  Alcotest.(check string) "nack bytes" "\x01\x08\xe8\x07" (Wire.encode nack);
  List.iter
    (fun m ->
      Alcotest.(check int) "size = encode length" (String.length (Wire.encode m)) (Wire.byte_size m);
      Alcotest.(check string) "kind" "path_report" (Wire.kind m);
      let before = Gc.minor_words () in
      for _ = 1 to 1_000 do
        ignore (Sys.opaque_identity (Wire.byte_size m))
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0)) "minor words over 1,000 sizings" 0.0 words)
    [ prefix; nack ];
  (* A one-router prefix, the common case, is about half a full report of
     the same join. *)
  let report =
    Wire.Path_report
      {
        peer = 1000;
        path =
          {
            Traceroute.Path.src = 150;
            dst = 1800;
            hops = Array.map (fun r -> Traceroute.Path.Known r) [| 150; 420; 777; 1300; 1800 |];
          };
      }
  in
  let one = Wire.Replica_prefix { peer = 1000; donor = 300; probes = 21; prefix = [| 150 |] } in
  Alcotest.(check bool)
    (Printf.sprintf "prefix %dB < report %dB" (Wire.byte_size one) (Wire.byte_size report))
    true
    (2 * Wire.byte_size one <= Wire.byte_size report + 2)

let qcheck_wire_replica_prefix_exact =
  QCheck.Test.make ~name:"replica prefix: byte_size = encode length, roundtrip" ~count:200
    QCheck.(
      quad (int_bound 100_000) (int_bound 100_000) (int_bound 200)
        (array_of_size Gen.(int_range 1 12) (int_bound 5000)))
    (fun (peer, donor, probes, prefix) ->
      let m = Wire.Replica_prefix { peer; donor; probes; prefix } in
      Wire.byte_size m = String.length (Wire.encode m)
      && match Wire.decode (Wire.encode m) with Ok m' -> Wire.equal m m' | Error _ -> false)

(* Tags 9 and 10, a join's first-round prefix and the server's request for
   the rest: the exact bytes, the path-report kind and sizing without
   allocating (round trips and truncations run over [sample_messages]). *)
let test_wire_prefix_round_messages () =
  let prefix = Wire.Path_prefix { peer = 1000; landmark = 1800; probes = 10; prefix = [| 150; 420 |] }
  and continue = Wire.Continue { peer = 1000 } in
  Alcotest.(check string) "prefix bytes" "\x01\x09\xe8\x07\x88\x0e\x0a\x02\x96\x01\xa4\x03"
    (Wire.encode prefix);
  Alcotest.(check string) "continue bytes" "\x01\x0a\xe8\x07" (Wire.encode continue);
  List.iter
    (fun m ->
      Alcotest.(check int) "size = encode length" (String.length (Wire.encode m)) (Wire.byte_size m);
      Alcotest.(check string) "kind" "path_report" (Wire.kind m);
      let before = Gc.minor_words () in
      for _ = 1 to 1_000 do
        ignore (Sys.opaque_identity (Wire.byte_size m))
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0)) "minor words over 1,000 sizings" 0.0 words)
    [ prefix; continue ]

let qcheck_wire_path_prefix_exact =
  QCheck.Test.make ~name:"path prefix: byte_size = encode length, roundtrip" ~count:200
    QCheck.(
      quad (int_bound 100_000) (int_bound 5000) (int_bound 200)
        (array_of_size Gen.(int_range 1 4) (int_bound 5000)))
    (fun (peer, landmark, probes, prefix) ->
      List.for_all
        (fun m ->
          Wire.byte_size m = String.length (Wire.encode m)
          && match Wire.decode (Wire.encode m) with Ok m' -> Wire.equal m m' | Error _ -> false)
        [ Wire.Path_prefix { peer; landmark; probes; prefix }; Wire.Continue { peer } ])

(* Decoding stays total on a valid frame with 1-4 bytes overwritten, for
   every message kind: it returns [Ok] or [Error], never raises. *)
let qcheck_wire_decode_mutations =
  let samples = Array.of_list (List.map Wire.encode sample_messages) in
  QCheck.Test.make ~name:"wire decode never raises on 1-4 byte mutations" ~count:2000
    QCheck.(
      pair (int_bound (Array.length samples - 1))
        (list_of_size Gen.(int_range 1 4) (pair (int_bound 1000) (int_bound 255))))
    (fun (which, edits) ->
      let b = Bytes.of_string samples.(which) in
      List.iter (fun (pos, v) -> Bytes.set b (pos mod Bytes.length b) (Char.chr v)) edits;
      match Wire.decode (Bytes.to_string b) with Ok _ | Error _ -> true)

let qcheck_wire_neighbor_reply_roundtrip =
  QCheck.Test.make ~name:"wire neighbor-reply roundtrip" ~count:300
    QCheck.(pair (int_bound 10000) (small_list (pair (int_bound 5000) (int_bound 64))))
    (fun (peer, neighbors) ->
      let m = Wire.Neighbor_reply { peer; neighbors } in
      match Wire.decode (Wire.encode m) with Ok m' -> Wire.equal m m' | Error _ -> false)

(* A batched fan-out must cost less than the reports shipped one message
   each — that is its reason to exist — and the allocation-free [byte_size]
   must agree with the bytes [encode] actually produces. *)
let test_wire_batch_beats_singletons () =
  let report i =
    ( 1000 + i,
      {
        Traceroute.Path.src = i;
        dst = 204;
        hops = Array.init 9 (fun h -> Traceroute.Path.Known ((h * 31) + i));
      } )
  in
  let reports = List.init 16 report in
  let batch = Wire.byte_size (Wire.Path_report_batch { reports }) in
  let singles =
    List.fold_left
      (fun acc (peer, path) -> acc + Wire.byte_size (Wire.Path_report { peer; path }))
      0 reports
  in
  Alcotest.(check bool)
    (Printf.sprintf "batch %dB < %dB singles" batch singles)
    true (batch < singles);
  match Wire.decode (Wire.encode (Wire.Path_report_batch { reports })) with
  | Ok m' -> Alcotest.(check bool) "batch roundtrip" true (Wire.equal (Wire.Path_report_batch { reports }) m')
  | Error e -> Alcotest.fail e

let gen_path =
  QCheck.Gen.(
    map3
      (fun src dst hops -> { Traceroute.Path.src; dst; hops = Array.of_list hops })
      (int_bound 5000) (int_bound 5000)
      (list_size (int_bound 12)
         (map
            (fun h -> if h = 0 then Traceroute.Path.Anonymous else Traceroute.Path.Known h)
            (int_bound 5000))))

let qcheck_wire_batch_size_exact =
  QCheck.Test.make ~name:"byte_size = encode length for report batches" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_bound 8) (pair (int_bound 10000) gen_path)))
    (fun reports ->
      let m = Wire.Path_report_batch { reports } in
      Wire.byte_size m = String.length (Wire.encode m)
      && match Wire.decode (Wire.encode m) with Ok m' -> Wire.equal m m' | Error _ -> false)

let qcheck_wire_decode_total =
  QCheck.Test.make ~name:"wire decode never raises on random bytes" ~count:500
    QCheck.(string_of_size Gen.(int_bound 40))
    (fun s ->
      match Wire.decode s with Ok _ -> true | Error _ -> true)

let suite =
  let q t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t in
  ( "wire",
    [
      Alcotest.test_case "varint known values" `Quick test_varint_known;
      q qcheck_varint_roundtrip;
      Alcotest.test_case "u8 bounds" `Quick test_u8_bounds;
      Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
      Alcotest.test_case "int64 fixed width" `Quick test_int64_fixed_width;
      Alcotest.test_case "reader truncated" `Quick test_reader_truncated;
      Alcotest.test_case "malformed varint" `Quick test_reader_malformed_varint;
      Alcotest.test_case "varint overflow edges" `Quick test_varint_overflow_edges;
      Alcotest.test_case "varint truncated mid-encoding" `Quick test_varint_truncated_multibyte;
      Alcotest.test_case "bool roundtrip" `Quick test_bool_roundtrip;
      Alcotest.test_case "list roundtrip" `Quick test_list_roundtrip;
      Alcotest.test_case "absurd list count" `Quick test_list_absurd_count;
      Alcotest.test_case "message roundtrip" `Quick test_wire_roundtrip;
      Alcotest.test_case "all truncations rejected" `Quick test_wire_every_truncation_fails_cleanly;
      Alcotest.test_case "trailing garbage" `Quick test_wire_trailing_garbage;
      Alcotest.test_case "bad version/tag" `Quick test_wire_bad_version_and_tag;
      Alcotest.test_case "sizes reasonable" `Quick test_wire_sizes_reasonable;
      Alcotest.test_case "report sizing allocates nothing" `Quick
        test_wire_report_size_allocates_nothing;
      Alcotest.test_case "batch beats singleton reports" `Quick test_wire_batch_beats_singletons;
      Alcotest.test_case "replica prefix and nack" `Quick test_wire_replica_messages;
      q qcheck_wire_replica_prefix_exact;
      Alcotest.test_case "path prefix and continue" `Quick test_wire_prefix_round_messages;
      q qcheck_wire_path_prefix_exact;
      q qcheck_wire_decode_mutations;
      q qcheck_wire_batch_size_exact;
      q qcheck_wire_neighbor_reply_roundtrip;
      q qcheck_wire_decode_total;
    ] )
