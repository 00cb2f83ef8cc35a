type message =
  | Ping_request of { nonce : int }
  | Ping_reply of { nonce : int }
  | Path_report of { peer : int; path : Traceroute.Path.t }
  | Neighbor_request of { peer : int; k : int }
  | Neighbor_reply of { peer : int; neighbors : (int * int) list }
  | Leave of { peer : int }
  | Path_report_batch of { reports : (int * Traceroute.Path.t) list }
  | Replica_prefix of { peer : int; donor : int; probes : int; prefix : Topology.Graph.node array }
  | Replica_nack of { peer : int }
  | Path_prefix of {
      peer : int;
      k : int;
      landmark : int;
      probes : int;
      prefix : Topology.Graph.node array;
    }
  | Continue of { peer : int }

let protocol_version = 2

(* The wire-observability kind labels: one stable string per message
   family, the values `wire_bytes_total{kind=...}` series are keyed by.
   Requests for neighbors are the protocol's "query" and their answers
   the "reply" — named for the role, not the constructor, so the metric
   vocabulary matches the bench and dashboard headings.  A replica's
   prefix and its refusal are path-report traffic too, so the bytes
   replication saves show in the [path_report] series.  So are a client's
   first-round prefix and the server's request for the rest of it. *)
let kind = function
  | Ping_request _ | Ping_reply _ -> "ping"
  | Path_report _ | Replica_prefix _ | Replica_nack _ | Path_prefix _ | Continue _ -> "path_report"
  | Neighbor_request _ -> "query"
  | Neighbor_reply _ -> "reply"
  | Leave _ -> "leave"
  | Path_report_batch _ -> "path_report_batch"

(* A reply's largest distance, a 4-byte varint: a top-up's [max_int]. *)
let far = 0x3FFFFFF

let tag = function
  | Ping_request _ -> 0
  | Ping_reply _ -> 1
  | Path_report _ -> 2
  | Neighbor_request _ -> 3
  | Neighbor_reply _ -> 4
  | Leave _ -> 5
  | Path_report_batch _ -> 6
  | Replica_prefix _ -> 7
  | Replica_nack _ -> 8
  | Path_prefix _ -> 9
  | Continue _ -> 10

(* The encoder is written once against [Codec.SINK] and instantiated twice:
   over [Writer] to produce bytes, over [Sizer] to measure them — so
   [byte_size] cannot drift from [encode].  The neighbor request and
   reply, sized on every query, have emitters over their fields, so they
   are measured without building either message.  Sizing them, or a
   report, allocates nothing: lists and arrays are emitted by closed
   functions, into the domain's shared sizer. *)
module Emit (S : Prelude.Codec.SINK) = struct
  (* Version byte, then the message's tag. *)
  let header w tag =
    S.u8 w protocol_version;
    S.u8 w tag

  (* Hops are encoded as varints shifted by one so that 0 can mean an
     anonymous hop. *)
  let hop w = function
    | Traceroute.Path.Anonymous -> S.varint w 0
    | Traceroute.Path.Known r -> S.varint w (r + 1)

  let report w peer (path : Traceroute.Path.t) =
    S.varint w peer;
    S.varint w path.src;
    S.varint w path.dst;
    S.array w hop path.hops

  let neighbor w (p, d) =
    S.varint w p;
    S.varint w (if d >= far then far else d)

  (* The bodies of a neighbor request and reply, after the header. *)
  let neighbor_request w ~peer ~k =
    S.varint w peer;
    S.varint w k

  let neighbor_reply w ~peer neighbors =
    S.varint w peer;
    S.list w neighbor neighbors

  let message w m =
    header w (tag m);
    match m with
    | Ping_request { nonce } | Ping_reply { nonce } -> S.varint w nonce
    | Path_report { peer; path } -> report w peer path
    | Path_report_batch { reports } -> S.list w (fun w (peer, path) -> report w peer path) reports
    | Neighbor_request { peer; k } -> neighbor_request w ~peer ~k
    | Neighbor_reply { peer; neighbors } -> neighbor_reply w ~peer neighbors
    | Leave { peer } | Replica_nack { peer } | Continue { peer } -> S.varint w peer
    | Replica_prefix { peer; donor; probes; prefix } ->
        S.varint w peer;
        S.varint w donor;
        S.varint w probes;
        S.array w S.varint prefix
    | Path_prefix { peer; k; landmark; probes; prefix } ->
        S.varint w peer;
        S.varint w k;
        S.varint w landmark;
        S.varint w probes;
        S.array w S.varint prefix
end

module Emit_bytes = Emit (Prelude.Codec.Writer)
module Emit_size = Emit (Prelude.Codec.Sizer)

let encode message =
  let w = Prelude.Codec.Writer.create () in
  Emit_bytes.message w message;
  Prelude.Codec.Writer.contents w

(* Each sizer reads the domain's shared sizer before and after emitting:
   no sizer, and no closure, per call. *)
let byte_size message =
  let s = Prelude.Codec.Sizer.shared () in
  let before = Prelude.Codec.Sizer.size s in
  Emit_size.message s message;
  Prelude.Codec.Sizer.size s - before

let neighbor_request_size ~peer ~k =
  let s = Prelude.Codec.Sizer.shared () in
  let before = Prelude.Codec.Sizer.size s in
  Emit_size.header s 3;
  Emit_size.neighbor_request s ~peer ~k;
  Prelude.Codec.Sizer.size s - before

let neighbor_reply_size ~peer neighbors =
  let s = Prelude.Codec.Sizer.shared () in
  let before = Prelude.Codec.Sizer.size s in
  Emit_size.header s 4;
  Emit_size.neighbor_reply s ~peer neighbors;
  Prelude.Codec.Sizer.size s - before

let decode_hop r =
  match Prelude.Codec.Reader.varint r with
  | Error e -> Error e
  | Ok 0 -> Ok Traceroute.Path.Anonymous
  | Ok v -> Ok (Traceroute.Path.Known (v - 1))

let decode_report r =
  let open Prelude.Codec.Reader in
  let ( let* ) = Result.bind in
  let* peer = varint r in
  let* src = varint r in
  let* dst = varint r in
  let* hops = list r decode_hop in
  Ok (peer, { Traceroute.Path.src; dst; hops = Array.of_list hops })

let decode_body r t =
  let open Prelude.Codec.Reader in
  let ( let* ) = Result.bind in
  match t with
  | 0 ->
      let* nonce = varint r in
      Ok (Ping_request { nonce })
  | 1 ->
      let* nonce = varint r in
      Ok (Ping_reply { nonce })
  | 2 ->
      let* peer, path = decode_report r in
      Ok (Path_report { peer; path })
  | 3 ->
      let* peer = varint r in
      let* k = varint r in
      Ok (Neighbor_request { peer; k })
  | 4 ->
      let* peer = varint r in
      let* neighbors =
        list r (fun r ->
            let* p = varint r in
            let* d = varint r in
            Ok (p, if d = far then max_int else d))
      in
      Ok (Neighbor_reply { peer; neighbors })
  | 5 ->
      let* peer = varint r in
      Ok (Leave { peer })
  | 6 ->
      let* reports = list r decode_report in
      Ok (Path_report_batch { reports })
  | 7 ->
      let* peer = varint r in
      let* donor = varint r in
      let* probes = varint r in
      let* prefix = list r varint in
      Ok (Replica_prefix { peer; donor; probes; prefix = Array.of_list prefix })
  | 8 ->
      let* peer = varint r in
      Ok (Replica_nack { peer })
  | 9 ->
      let* peer = varint r in
      let* k = varint r in
      let* landmark = varint r in
      let* probes = varint r in
      let* prefix = list r varint in
      Ok (Path_prefix { peer; k; landmark; probes; prefix = Array.of_list prefix })
  | 10 ->
      let* peer = varint r in
      Ok (Continue { peer })
  | other -> Error (Malformed (Printf.sprintf "unknown tag %d" other))

let decode data =
  let open Prelude.Codec.Reader in
  let r = of_string data in
  let ( let* ) = Result.bind in
  let result =
    let* version = u8 r in
    if version <> protocol_version then
      Error (Malformed (Printf.sprintf "unsupported version %d" version))
    else
      let* t = u8 r in
      let* message = decode_body r t in
      if is_exhausted r then Ok message else Error (Malformed "trailing bytes")
  in
  Result.map_error error_to_string result

let equal a b = a = b

let pp ppf = function
  | Ping_request { nonce } -> Format.fprintf ppf "ping?%d" nonce
  | Ping_reply { nonce } -> Format.fprintf ppf "ping!%d" nonce
  | Path_report { peer; path } ->
      Format.fprintf ppf "path-report peer=%d %a" peer Traceroute.Path.pp path
  | Neighbor_request { peer; k } -> Format.fprintf ppf "neighbors? peer=%d k=%d" peer k
  | Neighbor_reply { peer; neighbors } ->
      Format.fprintf ppf "neighbors! peer=%d [%s]" peer
        (String.concat "; " (List.map (fun (p, d) -> Printf.sprintf "%d@%d" p d) neighbors))
  | Leave { peer } -> Format.fprintf ppf "leave peer=%d" peer
  | Path_report_batch { reports } ->
      Format.fprintf ppf "path-report-batch n=%d [%s]" (List.length reports)
        (String.concat "; " (List.map (fun (p, _) -> string_of_int p) reports))
  | Replica_prefix { peer; donor; probes; prefix } ->
      Format.fprintf ppf "replica-prefix peer=%d donor=%d probes=%d [%s]" peer donor probes
        (String.concat " -> " (Array.to_list (Array.map string_of_int prefix)))
  | Replica_nack { peer } -> Format.fprintf ppf "replica-nack peer=%d" peer
  | Path_prefix { peer; k; landmark; probes; prefix } ->
      Format.fprintf ppf "path-prefix peer=%d k=%d landmark=%d probes=%d [%s]" peer k landmark probes
        (String.concat " -> " (Array.to_list (Array.map string_of_int prefix)))
  | Continue { peer } -> Format.fprintf ppf "continue peer=%d" peer
