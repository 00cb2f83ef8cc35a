let log_src = Logs.Src.create "nearby.server" ~doc:"Management-server protocol events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Whether debug messages are on: a per-operation path tests it before
   building a message closure, which would otherwise be allocated every
   call. *)
let debug_on () = match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

type peer_info = {
  attach_router : Topology.Graph.node;
  landmark : Topology.Graph.node;
  recorded_path : Traceroute.Path.t;
  probes_spent : int;
}

module Slot_index = Prelude.Slot_index

(* The trace cells the server writes, each resolved at its first write. *)
type cells = {
  refreshes : Simkit.Trace.counter_cell;
  joins : Simkit.Trace.counter_cell;
  probe_packets : Simkit.Trace.counter_cell;
  wire_bytes : Simkit.Trace.counter_cell;
  path_hops : Simkit.Trace.stream_cell;
  ping_round_ms : Simkit.Trace.stream_cell;
  traceroute_ms : Simkit.Trace.stream_cell;
  join_ms : Simkit.Trace.stream_cell;
  replica_registers : Simkit.Trace.counter_cell;
  queries : Simkit.Trace.counter_cell;
  topups : Simkit.Trace.counter_cell;
  leaves : Simkit.Trace.counter_cell;
  handovers : Simkit.Trace.counter_cell;
}

let cells_of trace =
  let counter = Simkit.Trace.counter_cell trace and stream = Simkit.Trace.stream_cell trace in
  {
    refreshes = counter "report_refresh";
    joins = counter "join";
    probe_packets = counter "probe_packets";
    wire_bytes = counter "wire_bytes";
    path_hops = stream "path_hops";
    ping_round_ms = stream "ping_round_ms";
    traceroute_ms = stream "traceroute_ms";
    join_ms = stream "join_ms";
    replica_registers = counter "replica_register";
    queries = counter "query";
    topups = counter "cross_tree_topup";
    leaves = counter "leave";
    handovers = counter "handover";
  }

type t = {
  oracle : Traceroute.Route_oracle.t;
  landmark_ids : Topology.Graph.node array;
  backend : (module Registry_intf.S);
  registries : Registry_intf.t array;  (* parallel to [landmark_ids] *)
  (* A member is a slot of [index]; its state is one cell of each per-slot
     array.  [routers.(slot)] is the array the member's landmark tree
     stores, read back once at registration: the path exists once (the
     path tree keeps one array per distinct route, shared by the members
     registering it), and a query or a leave reaches it without probing
     the tree's own index.
     Its last router is the member's landmark ([registrable_path] ends
     every path there).  [stamps.(slot)] is when this server last learned
     the member's report, the staleness feed; it is not part of
     [snapshot], being a property of the replica's view, not of the data.
     A free slot holds [[||]] in [routers]. *)
  index : Slot_index.t;
  mutable routers : Topology.Graph.node array array;
  mutable attach : Topology.Graph.node array;
  mutable probes : int array;
  mutable stamps : Float.Array.t;
  (* [clock] defaults to a constant 0.0 until {!set_clock} wires the
     simulation engine in. *)
  mutable clock : unit -> float;
  (* One shared [Known r] block per router, indexed by router and grown on
     demand: a {!peer_info} view of a member's path then costs its hop
     array, not a block per hop. *)
  mutable known : Traceroute.Path.hop array;
  trace : Simkit.Trace.t;
  cells : cells;
  spans : Simkit.Span.sink;
  (* Delta anti-entropy state.  The peers are split into [bucket_count]
     buckets by a mixed hash of the peer id; [bucket_digests] holds each
     bucket's content digest (the XOR of [entry_digest] over its entries)
     as 8 unboxed bytes, and [bucket_members] its peer ids, so a repair
     touches only the buckets whose digests differ. *)
  bucket_digests : Bytes.t;
  bucket_members : Prelude.Vec.t array;
}

(* A summary costs 8 bytes per bucket and a differing bucket costs its
   share of the members, so more buckets pay off as more entries differ.
   Measured repair bytes per join, bench/stack seed 1, buckets
   64/128/256/512/1024: join-steady 16.2/9.2/6.4/6.3/9.4, join-lossy
   77.0/63.2/46.6/33.7/27.9.  512 is best on the steady workload and close
   on the lossy one at half the summary and index of 1024. *)
let bucket_count = 512

(* Fibonacci-style multiply, then fold the high half down, so that ids
   sharing low bits still spread over the buckets. *)
let bucket_of peer =
  let h = peer * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land (bucket_count - 1)

let create ?(backend = (module Path_tree : Registry_intf.S)) ?(spans = Simkit.Span.noop) oracle
    ~landmarks =
  if Array.length landmarks = 0 then invalid_arg "Server.create: no landmarks";
  let distinct = Hashtbl.create 8 in
  Array.iter
    (fun lmk ->
      if Hashtbl.mem distinct lmk then invalid_arg "Server.create: duplicate landmark";
      Hashtbl.add distinct lmk ())
    landmarks;
  let trace = Simkit.Trace.create () in
  let registries =
    Array.map (fun lmk -> Registry_intf.create ~trace backend ~landmark:lmk) landmarks
  in
  {
    oracle;
    landmark_ids = Array.copy landmarks;
    backend;
    registries;
    index = Slot_index.create ();
    routers = [||];
    attach = [||];
    probes = [||];
    stamps = Float.Array.create 0;
    clock = (fun () -> 0.0);
    known = [||];
    trace;
    cells = cells_of trace;
    spans;
    bucket_digests = Bytes.make (8 * bucket_count) '\000';
    bucket_members = Array.init bucket_count (fun _ -> Prelude.Vec.create ~capacity:1 ());
  }

let set_clock t clock = t.clock <- clock

(* A member's landmark: the last router of its path. *)
let[@inline] landmark_of routers = routers.(Array.length routers - 1)
let[@inline] home_of t slot = landmark_of t.routers.(slot)

let registration_time t peer =
  let slot = Slot_index.find t.index peer in
  if slot < 0 then None else Some (Float.Array.get t.stamps slot)

let iter_registration_times t f =
  Slot_index.iter t.index (fun peer slot -> f peer (Float.Array.get t.stamps slot))

(* [lmk]'s slot in [landmark_ids] and [registries], or -1: an [Int.equal]
   scan over a handful of landmarks, no polymorphic hash or compare. *)
let rec landmark_index_from t lmk i =
  if i >= Array.length t.landmark_ids then -1
  else if Int.equal t.landmark_ids.(i) lmk then i
  else landmark_index_from t lmk (i + 1)

let is_landmark t lmk = landmark_index_from t lmk 0 >= 0

let oracle t = t.oracle
let graph t = Traceroute.Route_oracle.graph t.oracle
let landmarks t = Array.copy t.landmark_ids
let peer_count t = Slot_index.length t.index
let mem t peer = Slot_index.mem t.index peer
let trace t = t.trace
let registry_of t lmk =
  let i = landmark_index_from t lmk 0 in
  if i < 0 then raise Not_found else t.registries.(i)

(* The routers [peer]'s landmark tree stores: its own array, not a copy. *)
let tree_path t ~home peer =
  match Registry_intf.path_of (registry_of t home) peer with
  | Some routers -> routers
  | None -> failwith (Printf.sprintf "peer %d: its landmark tree does not hold its path" peer)

let path_of t peer =
  let slot = Slot_index.find t.index peer in
  if slot < 0 then None else Some (Array.copy t.routers.(slot))

(* [known] doubles as it grows, but never past the graph's last router. *)
let known t router =
  let n = Array.length t.known in
  if router >= n then begin
    let size = min (Topology.Graph.node_count (graph t)) (max (router + 1) (2 * n)) in
    let grown = Array.make size Traceroute.Path.Anonymous in
    Array.blit t.known 0 grown 0 n;
    t.known <- grown
  end;
  match t.known.(router) with
  | Traceroute.Path.Known _ as hop -> hop
  | Anonymous ->
      let hop = Traceroute.Path.Known router in
      t.known.(router) <- hop;
      hop

(* The view's path: the registered routers, fully identified, from the
   attach router. *)
let view_path t slot : Traceroute.Path.t =
  { src = t.attach.(slot); dst = home_of t slot; hops = Array.map (known t) t.routers.(slot) }

let info t peer =
  let slot = Slot_index.find t.index peer in
  if slot < 0 then None
  else
    Some
      {
        attach_router = t.attach.(slot);
        landmark = home_of t slot;
        recorded_path = view_path t slot;
        probes_spent = t.probes.(slot);
      }

(* One [Some] per call: audit asks this of every member on every audited
   reply. *)
let attach_router t peer =
  let slot = Slot_index.find t.index peer in
  if slot < 0 then None else Some t.attach.(slot)

let backend_name t =
  let module B = (val t.backend : Registry_intf.S) in
  B.backend_name

(* Uniform per-backend metrics: the per-landmark [stats] assoc lists summed
   into one view, whatever the backend. *)
let registry_stats t =
  Registry_intf.merge_stats
    (Array.fold_left (fun acc reg -> Registry_intf.stats reg :: acc) [] t.registries)

(* The per-landmark registries partition the peers, so the bucket-wise
   merge (occupancies add, hot lists re-rank) is the whole-server truth. *)
let introspection t =
  Registry_intf.merge_introspections
    (Array.fold_left (fun acc reg -> Registry_intf.introspect reg :: acc) [] t.registries)

let peer_ids t = Slot_index.fold (fun peer _ acc -> peer :: acc) t.index [] |> List.sort compare

type measurement = Client.measurement

(* bench/stack only: a client over this server's oracle and landmarks. *)
let measure ?rng t ~attach_router =
  Client.measure ?rng (Client.create t.oracle ~landmarks:t.landmark_ids) ~attach_router
let measurement_landmark (m : measurement) = m.landmark
let measurement_path (m : measurement) = m.path
let measurement_probes (m : measurement) = m.probes
let measurement_duration_ms = Client.duration_ms

let registrable_path ~landmark path =
  (* The tree stores identified routers only; an incomplete trace is repaired
     by appending the landmark itself (the newcomer knows whom it probed). *)
  let routers = Traceroute.Path.known_routers path in
  let n = Array.length routers in
  if n > 0 && routers.(n - 1) = landmark then routers
  else Array.append routers [| landmark |]

(* --- Content digests ---------------------------------------------------

   The server's content digest is the XOR of one 64-bit hash per
   [(peer, routers)] registration.  XOR is commutative and self-inverse, so
   the digest is order-independent and maintained incrementally: XOR the
   entry hash in on insert, XOR the same hash out on remove.  Two replicas
   hold the same registrations iff (up to 64-bit collision) their digests
   match, whatever registry backend each runs.

   The entry hash is FNV-1a over the peer id and the router sequence
   (costs are derived from position, so hashing the sequence covers them),
   finished with a splitmix64-style avalanche so single-bit input changes
   flip about half the output bits — without it, XOR-combining many
   near-identical FNV states would cancel structure. *)

let[@inline] fnv_mix h v = Int64.mul (Int64.logxor h (Int64.of_int v)) 0x100000001b3L

(* A plain loop over a local ref, inlined where it is used: the int64
   state then stays unboxed, so the hash allocates nothing. *)
let[@inline] entry_digest ~peer ~routers : int64 =
  let h = ref (fnv_mix 0xcbf29ce484222325L peer) in
  for i = 0 to Array.length routers - 1 do
    h := fnv_mix !h (Array.unsafe_get routers i)
  done;
  (* splitmix64 finalizer *)
  let z = fnv_mix !h (Array.length routers) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Toggle an entry in a digest stored unboxed at [buf.[off .. off+7]]:
   XOR is self-inverse, so the same call adds and removes. *)
let xor_entry_digest buf off ~peer ~routers =
  Bytes.set_int64_ne buf off
    (Int64.logxor (Bytes.get_int64_ne buf off) (entry_digest ~peer ~routers))

(* The buckets partition the registrations, so the XOR-fold of their
   digests is the whole-server digest — the value replicas compare to
   detect divergence. *)
let digest t =
  let d = ref 0L in
  for b = 0 to bucket_count - 1 do
    d := Int64.logxor !d (Bytes.get_int64_ne t.bucket_digests (8 * b))
  done;
  !d

(* --- Bucket state ------------------------------------------------------ *)

let rec vec_position members peer i =
  if Prelude.Vec.get members i = peer then i else vec_position members peer (i + 1)

(* The one place a registration enters or leaves the bucket state: every
   insert and remove path calls it beside its registry write.  The digest
   toggle allocates nothing. *)
let account t ~peer ~routers ~add =
  let b = bucket_of peer in
  xor_entry_digest t.bucket_digests (8 * b) ~peer ~routers;
  let members = t.bucket_members.(b) in
  if add then Prelude.Vec.push members peer
  else begin
    (* Swap-remove: order within a bucket carries no meaning. *)
    Prelude.Vec.set members (vec_position members peer 0)
      (Prelude.Vec.get members (Prelude.Vec.length members - 1));
    ignore (Prelude.Vec.pop members)
  end

(* Room for [slot] in the per-slot arrays: as many slots as the index
   holds keys. *)
let ensure_slot t slot =
  let n = Array.length t.routers in
  if slot >= n then begin
    let size = Slot_index.capacity t.index in
    let grow a fill =
      let grown = Array.make size fill in
      Array.blit a 0 grown 0 n;
      grown
    in
    t.routers <- grow t.routers [||];
    t.attach <- grow t.attach 0;
    t.probes <- grow t.probes 0;
    let stamps = Float.Array.make size 0.0 in
    Float.Array.blit t.stamps 0 stamps 0 n;
    t.stamps <- stamps
  end

(* The server's side of one registration whose path its landmark tree
   holds: the member's slot, stamped now, and the bucket state.  Only a
   client's report counts as a [report_refresh]; learning a report through
   repair does not. *)
let record t ~peer ~routers ~refresh ~attach ~home ~probes =
  let stored = tree_path t ~home peer in
  let slot = Slot_index.add t.index peer in
  ensure_slot t slot;
  t.routers.(slot) <- stored;
  t.attach.(slot) <- attach;
  t.probes.(slot) <- probes;
  Float.Array.set t.stamps slot (t.clock ());
  account t ~peer ~routers ~add:true;
  if refresh then Simkit.Trace.cell_incr t.cells.refreshes

(* The per-entry store every registration path goes through -- join,
   batch join, replica apply and snapshot apply. *)
let store t ~peer ~routers ~refresh ~attach ~home ~probes =
  Registry_intf.insert (registry_of t home) ~peer ~routers;
  record t ~peer ~routers ~refresh ~attach ~home ~probes

(* Unregister the member [peer] holding [slot]. *)
let remove_entry t ~peer slot =
  let routers = t.routers.(slot) in
  Registry_intf.remove (registry_of t (landmark_of routers)) peer;
  ignore (Slot_index.remove t.index peer);
  t.routers.(slot) <- [||];
  account t ~peer ~routers ~add:false

(* The join counters and the per-phase cost of the two-round protocol, in
   simulated milliseconds: the same for a singleton and a batched join. *)
let count_join t (m : measurement) =
  let c = t.cells in
  Simkit.Trace.cell_incr c.joins;
  Simkit.Trace.cell_add c.probe_packets m.probes;
  Simkit.Trace.cell_observe c.path_hops (float_of_int (Traceroute.Path.hop_count m.path));
  Simkit.Trace.cell_observe c.ping_round_ms m.ping_ms;
  Simkit.Trace.cell_observe c.traceroute_ms m.traceroute_ms;
  Simkit.Trace.cell_observe c.join_ms (Client.duration_ms m)

(* A client's registration: the registry write runs under the "register"
   span, so its op spans nest there. *)
let store_join t ~peer ~routers ~attach_router ~landmark ~probes =
  if Simkit.Span.enabled t.spans then
    Simkit.Span.(
      with_span t.spans ~name:"register" ?parent:(current t.spans) ~tid:peer
        [ ("peer", Int peer); ("landmark", Int landmark); ("routers", Int (Array.length routers)) ])
      (fun _ -> store t ~peer ~routers ~refresh:true ~attach:attach_router ~home:landmark ~probes)
  else store t ~peer ~routers ~refresh:true ~attach:attach_router ~home:landmark ~probes

let measured_info ~attach_router (m : measurement) =
  { attach_router; landmark = m.landmark; recorded_path = m.path; probes_spent = m.probes }

(* Round 2 server side, split from [join] so a replicated cluster can
   measure once at the client and register on any replica. *)
let register_measured t ~peer ~attach_router (m : measurement) =
  if mem t peer then
    invalid_arg "Server.register_measured: peer already registered";
  let landmark = m.landmark and recorded_path = m.path and probes_spent = m.probes in
  let routers = registrable_path ~landmark recorded_path in
  store_join t ~peer ~routers ~attach_router ~landmark ~probes:probes_spent;
  if debug_on () then
    Log.debug (fun m ->
        m "join peer=%d router=%d landmark=%d hops=%d probes=%d" peer attach_router landmark
          (Traceroute.Path.hop_count recorded_path)
          probes_spent);
  count_join t m;
  Simkit.Trace.cell_add t.cells.wire_bytes
    (Wire.byte_size (Wire.Path_report { peer; path = recorded_path }));
  measured_info ~attach_router m

(* Both rounds in process, under one root "join" span: the sink clock does
   not see the measurement pass, so the join lasts at least as long. *)
let join ?rng t ~client ~peer ~attach_router =
  if mem t peer then invalid_arg "Server.join: peer already registered";
  let m = Client.measure ?rng client ~attach_router in
  if Simkit.Span.enabled t.spans then begin
    let open Simkit.Span in
    let ctx = context t.spans () and t0 = now t.spans in
    Client.measure_span t.spans ~parent:ctx ~peer m;
    let info = with_context t.spans ctx (fun () -> register_measured t ~peer ~attach_router m) in
    emit t.spans ~name:"join" ~ts:t0
      ~dur:(Float.max (Client.duration_ms m) (now t.spans -. t0))
      ~tid:peer ~ctx
      [ ("peer", Int peer); ("attach_router", Int attach_router) ];
    info
  end
  else register_measured t ~peer ~attach_router m

(* Replication apply: a peer measured and registered elsewhere lands here
   verbatim.  No join counters or spans — this is cluster traffic, not a
   protocol join — only the [replica_register] counter. *)
let register_replica t ~peer ~attach_router ~landmark ~path ~probes_spent =
  if mem t peer then invalid_arg "Server.register_replica: peer already registered";
  if not (is_landmark t landmark) then
    invalid_arg "Server.register_replica: unknown landmark";
  store t ~peer
    ~routers:(registrable_path ~landmark path)
    ~refresh:true ~attach:attach_router ~home:landmark ~probes:probes_spent;
  Simkit.Trace.cell_incr t.cells.replica_registers

(* --- Prefix replication --------------------------------------------------

   Routes toward one landmark form a tree, so a replica already stores a
   fresh member's route above the first router where another member's
   route runs on the same way.  The primary sends only the routers up to
   that one and names the other member as the donor; the replica takes
   the rest from its own copy of the donor's route. *)

(* Whether [a.(i ..)] equals [b.(j ..)], both running to their ends.
   This loop, [position_of] and [same_routers] name [int array]: left
   generic, each element comparison would be a runtime call. *)
let rec same_tail (a : int array) i (b : int array) j =
  i >= Array.length a || (a.(i) = b.(j) && same_tail a (i + 1) b (j + 1))

(* Whether [donor]'s stored route ends with [routers.(i ..)]. *)
let donor_shares t donor routers i =
  let slot = Slot_index.find t.index donor in
  slot >= 0
  &&
  let stored = t.routers.(slot) in
  let j = Array.length stored - Array.length routers + i in
  j >= 0 && same_tail routers i stored j

(* The first position of [routers] whose router another member of [reg]
   crosses with the same route on to the landmark, or -1. *)
let rec prefix_end t reg ~peer routers i =
  if i >= Array.length routers then -1
  else
    let donor = Registry_intf.member_through reg routers.(i) ~except:peer in
    if donor >= 0 && donor_shares t donor routers i then i
    else prefix_end t reg ~peer routers (i + 1)

let replication_prefix t ~peer =
  let slot = Slot_index.find t.index peer in
  if slot < 0 then None
  else
    let routers = t.routers.(slot) in
    (* The replica takes the attach router from the prefix. *)
    if t.attach.(slot) <> routers.(0) then None
    else
      let reg = registry_of t (landmark_of routers) in
      let i = prefix_end t reg ~peer routers 0 in
      if i < 0 then None
      else
        Some
          (Wire.Replica_prefix
             {
               peer;
               donor = Registry_intf.member_through reg routers.(i) ~except:peer;
               probes = t.probes.(slot);
               prefix = (if i = 0 then [| routers.(0) |] else Array.sub routers 0 (i + 1));
             })

let stored_report t ~peer =
  let slot = Slot_index.find t.index peer in
  if slot < 0 then raise Not_found;
  Wire.Path_report { peer; path = view_path t slot }

(* Whether a router is a node of a graph of [nodes] routers.  The check
   passes run on every repair and prefix apply, so they allocate
   nothing. *)
let[@inline] in_graph ~nodes router = router >= 0 && router < nodes

let rec routers_in_graph ~nodes routers i =
  i >= Array.length routers
  || (in_graph ~nodes routers.(i) && routers_in_graph ~nodes routers (i + 1))

let rec position_of (routers : int array) router i =
  if i >= Array.length routers then -1
  else if routers.(i) = router then i
  else position_of routers router (i + 1)

(* [prefix.(0 .. n-2)] followed by the route stored in [slot] from
   [prefix.(n-1)] on, built in one array; [[||]] when that route does not
   cross [prefix.(n-1)].  When the newcomer attached where the donor did,
   the route is the donor's own array, which the path tree then shares
   rather than copies (a registry never keeps the array it is given). *)
let completed_route t slot prefix n =
  let stored = t.routers.(slot) in
  let j = position_of stored prefix.(n - 1) 0 in
  if j < 0 then [||]
  else if n = 1 && j = 0 then stored
  else begin
    let tail = Array.length stored - j in
    let routers = Array.make (n - 1 + tail) 0 in
    Array.blit prefix 0 routers 0 (n - 1);
    Array.blit stored j routers (n - 1) tail;
    routers
  end

let register_replica_prefix t ~peer ~donor ~prefix ~probes_spent =
  if mem t peer then invalid_arg "Server.register_replica_prefix: peer already registered";
  let n = Array.length prefix and slot = Slot_index.find t.index donor in
  let nodes = Topology.Graph.node_count (graph t) in
  if n = 0 || slot < 0 || not (routers_in_graph ~nodes prefix 0) then false
  else
    let routers = completed_route t slot prefix n in
    if Array.length routers = 0 then false
    else begin
      store t ~peer ~routers ~refresh:true ~attach:prefix.(0) ~home:(landmark_of routers)
        ~probes:probes_spent;
      Simkit.Trace.cell_incr t.cells.replica_registers;
      true
    end

(* The route a first-round prefix registers, completed from a member
   crossing its first held router, from position [i] on; [[||]] when the
   tree holds none of them. *)
let rec prefix_route t reg ~peer prefix i =
  if i >= Array.length prefix then [||]
  else
    let donor = Registry_intf.member_through reg prefix.(i) ~except:peer in
    let slot = if donor >= 0 then Slot_index.find t.index donor else -1 in
    if slot >= 0 then completed_route t slot prefix (i + 1)
    else prefix_route t reg ~peer prefix (i + 1)

let register_prefix t ~peer ~attach_router ~prefix ~bytes (m : measurement) =
  if mem t peer then invalid_arg "Server.register_prefix: peer already registered";
  let landmark = m.landmark in
  if not (is_landmark t landmark) then invalid_arg "Server.register_prefix: unknown landmark";
  Simkit.Trace.cell_add t.cells.wire_bytes bytes;
  let routers = prefix_route t (registry_of t landmark) ~peer prefix 0 in
  (* A prefix that reached the landmark needs no donor. *)
  let n = Array.length prefix in
  let routers =
    if Array.length routers = 0 && n > 0 && prefix.(n - 1) = landmark then prefix else routers
  in
  if Array.length routers = 0 then begin
    (* Rare once the trees fill: a name lookup, not a cell in every server. *)
    Simkit.Trace.incr t.trace "join_continue";
    Simkit.Trace.cell_add t.cells.wire_bytes (Wire.byte_size (Wire.Continue { peer }));
    None
  end
  else begin
    store_join t ~peer ~routers ~attach_router ~landmark ~probes:m.probes;
    count_join t m;
    Some (measured_info ~attach_router m)
  end

(* Batch round 2: checked as a whole -- every peer in range, new and
   distinct -- before the first write, then stored entry by entry with
   exactly [register_measured]'s per-peer effects; the wire is charged one
   packed [Path_report_batch], and the trace gets one span. *)
let register_measured_batch t entries =
  let n = Array.length entries in
  let batch_seen = Slot_index.create ~capacity:n () in
  Array.iter
    (fun (peer, _, _) ->
      if peer < 0 || peer >= Slot_index.key_limit then
        invalid_arg "Server.register_measured: peer out of range";
      if mem t peer || Slot_index.mem batch_seen peer then
        invalid_arg "Server.register_measured: peer already registered";
      ignore (Slot_index.add batch_seen peer))
    entries;
  let infos =
    Simkit.Span.(
      with_span t.spans ~name:"register_batch" ?parent:(current t.spans) [ ("ops", Int n) ])
      (fun _ ->
        Array.map
          (fun (peer, attach_router, (m : measurement)) ->
            store t ~peer ~routers:(registrable_path ~landmark:m.landmark m.path) ~refresh:true
              ~attach:attach_router ~home:m.landmark ~probes:m.probes;
            count_join t m;
            measured_info ~attach_router m)
          entries)
  in
  let reports =
    Array.to_list (Array.map (fun (peer, _, (m : measurement)) -> (peer, m.path)) entries)
  in
  Simkit.Trace.cell_add t.cells.wire_bytes (Wire.byte_size (Wire.Path_report_batch { reports }));
  Log.debug (fun m -> m "join batch n=%d" n);
  infos

(* Landmarks ordered by hop distance from the peer's landmark: the top-up
   order when the home tree runs dry. *)
let topup_order t ~home =
  let others = Array.to_list t.landmark_ids |> List.filter (fun l -> l <> home) in
  List.sort
    (fun a b ->
      compare
        (Traceroute.Route_oracle.route_length t.oracle ~src:home ~dst:a)
        (Traceroute.Route_oracle.route_length t.oracle ~src:home ~dst:b))
    others

(* Fill a home-tree answer up to [k] from the other landmark registries,
   closest landmark first; top-up entries carry distance [max_int].  Each
   tree gives its lowest member ids, by a bounded selection over them:
   the answer does not depend on the backend's internal order.  The trees
   partition the members, so no other tree holds the asker or a peer of
   [result]. *)
let top_up t ~home ~k result =
  let held = List.length result in
  if held >= k then result
  else begin
    let missing = ref (k - held) and extra = ref [] in
    List.iter
      (fun lmk ->
        if !missing > 0 then begin
          let lowest = Topk.shared ~k:!missing in
          Registry_intf.iter_members (registry_of t lmk) (fun p ->
              Topk.offer lowest (Topk.pack ~cost:0 ~peer:p));
          List.iter
            (fun (p, _) ->
              extra := (p, max_int) :: !extra;
              decr missing;
              Simkit.Trace.cell_incr t.cells.topups)
            (Topk.drain lowest)
        end)
      (topup_order t ~home);
    result @ List.rev !extra
  end

(* A member's query walks the routers its slot shares with its tree:
   nothing is rebuilt per query, and the asker is named through
   {!Topk.excluding}, so no closure or [Some] is built for it either. *)
let lookup t ~peer ~k routers =
  Simkit.Trace.cell_incr t.cells.queries;
  let home = landmark_of routers in
  top_up t ~home ~k
    (Registry_intf.query (registry_of t home) ~routers ~k ?exclude:(Topk.excluding peer) ())

(* Traced, the "query" span sits under the ambient request or roots a
   trace of its own; registry op spans nest under it. *)
let answer t ~peer ~k =
  let slot = Slot_index.find t.index peer in
  if slot < 0 then raise Not_found;
  let routers = t.routers.(slot) in
  if Simkit.Span.enabled t.spans then begin
    let open Simkit.Span in
    let span =
      start_span t.spans ~name:"query" ?parent:(current t.spans) ~tid:peer
        [ ("peer", Int peer); ("k", Int k); ("probes_spent", Int t.probes.(slot)) ]
    in
    let reply = with_context t.spans (context_of span) (fun () -> lookup t ~peer ~k routers) in
    add_arg span "candidates" (Int (List.length reply));
    add_arg span "dtree_best" (Int (match reply with (_, d) :: _ -> d | [] -> -1));
    finish span;
    reply
  end
  else lookup t ~peer ~k routers

(* Charge a query's [request_bytes] and its [reply] to the wire counter;
   the reply's size.  Both are sized from their fields: no message is
   built. *)
let count_query t ~peer ~request_bytes reply =
  let reply_bytes = Wire.neighbor_reply_size ~peer reply in
  Simkit.Trace.cell_add t.cells.wire_bytes (request_bytes + reply_bytes);
  reply_bytes

let neighbors t ~peer ~k =
  let reply = answer t ~peer ~k in
  ignore (count_query t ~peer ~request_bytes:(Wire.neighbor_request_size ~peer ~k) reply);
  reply

let sized_neighbors t ~peer ~k ~request_bytes =
  let reply = answer t ~peer ~k in
  (reply, count_query t ~peer ~request_bytes reply)

let leave t ~peer =
  let slot = Slot_index.find t.index peer in
  if slot < 0 then raise Not_found;
  let home = home_of t slot in
  remove_entry t ~peer slot;
  if debug_on () then Log.debug (fun log -> log "leave peer=%d landmark=%d" peer home);
  Simkit.Trace.cell_incr t.cells.leaves

let handover ?rng t ~client ~peer ~attach_router =
  if not (mem t peer) then raise Not_found;
  leave t ~peer;
  let info = join ?rng t ~client ~peer ~attach_router in
  Simkit.Trace.cell_incr t.cells.handovers;
  info

let check_invariants t =
  Array.iter Registry_intf.check_invariants t.registries;
  Slot_index.check_invariants t.index;
  let slots = Array.length t.routers in
  if Array.length t.attach <> slots || Array.length t.probes <> slots
     || Float.Array.length t.stamps <> slots
  then failwith "per-slot arrays differ in length";
  let fresh = Bytes.make (8 * bucket_count) '\000' in
  Slot_index.iter t.index (fun peer slot ->
      let home = home_of t slot in
      let routers = tree_path t ~home peer in
      if routers != t.routers.(slot) then
        failwith (Printf.sprintf "peer %d: its slot does not share its tree's path" peer);
      Array.iter
        (fun lmk ->
          if lmk <> home && Registry_intf.mem (registry_of t lmk) peer then
            failwith (Printf.sprintf "peer %d registered in a foreign tree" peer))
        t.landmark_ids;
      xor_entry_digest fresh (8 * bucket_of peer) ~peer ~routers);
  let members =
    Array.fold_left (fun acc reg -> acc + Registry_intf.member_count reg) 0 t.registries
  in
  if members <> peer_count t then
    failwith
      (Printf.sprintf "landmark trees hold %d members, %d registered" members (peer_count t));
  if not (Bytes.equal fresh t.bucket_digests) then
    failwith "bucket digests differ from a recompute over the registrations";
  let indexed = Hashtbl.create (peer_count t) in
  Array.iteri
    (fun b members ->
      Prelude.Vec.iter members (fun peer ->
          if bucket_of peer <> b || (not (mem t peer)) || Hashtbl.mem indexed peer then
            failwith (Printf.sprintf "peer %d misindexed in bucket %d" peer b);
          Hashtbl.add indexed peer ()))
    t.bucket_members;
  if Hashtbl.length indexed <> peer_count t then
    failwith "registered peers missing from the bucket index"

(* --- Bucket summaries -------------------------------------------------- *)

(* A summary's header: the bucket count as a varint. *)
let summary_header =
  let w = Prelude.Codec.Writer.create () in
  Prelude.Codec.Writer.varint w bucket_count;
  Prelude.Codec.Writer.contents w

(* The header, then every bucket digest as 8 little-endian bytes, copied
   from [bucket_digests] without boxing one. *)
let bucket_summary t =
  let h = String.length summary_header in
  let out = Bytes.create (h + (8 * bucket_count)) in
  Bytes.blit_string summary_header 0 out 0 h;
  for b = 0 to bucket_count - 1 do
    Bytes.set_int64_le out (h + (8 * b)) (Bytes.get_int64_ne t.bucket_digests (8 * b))
  done;
  Bytes.unsafe_to_string out

(* The digests are compared where they lie in [summary]; a summary too
   short for every digest is truncated, a longer one has trailing bytes. *)
let differing_buckets t summary =
  let open Prelude.Codec.Reader in
  let r = of_string summary in
  match varint r with
  | Error e -> Error (error_to_string e)
  | Ok n when n <> bucket_count ->
      Error
        (error_to_string
           (Malformed (Printf.sprintf "summary of %d buckets, expected %d" n bucket_count)))
  | Ok _ ->
      let off = pos r in
      let rest = String.length summary - off in
      if rest < 8 * bucket_count then Error (error_to_string Truncated)
      else if rest > 8 * bucket_count then Error (error_to_string (Malformed "trailing bytes"))
      else begin
        let differ = ref [] in
        for b = bucket_count - 1 downto 0 do
          if String.get_int64_le summary (off + (8 * b)) <> Bytes.get_int64_ne t.bucket_digests (8 * b)
          then differ := b :: !differ
        done;
        Ok !differ
      end

(* --- Persistence and partial snapshots --------------------------------- *)

let snapshot_version = 2

(* The snapshot entry codec, shared by full and partial snapshots: an entry
   is the registration as the server stores it -- peer, attach router,
   probe cost, then the registered routers, whose last is the member's
   landmark.  Entries go out ascending by peer id, which the decoder
   enforces; [peers] is sorted in place. *)
let write_entries t w peers =
  let open Prelude.Codec.Writer in
  Array.sort Int.compare peers;
  array w
    (fun w peer ->
      let slot = Slot_index.find t.index peer in
      varint w peer;
      varint w t.attach.(slot);
      varint w t.probes.(slot);
      array w varint t.routers.(slot))
    peers

let snapshot t =
  let w = Prelude.Codec.Writer.create ~capacity:4096 () in
  let open Prelude.Codec.Writer in
  u8 w snapshot_version;
  array w varint t.landmark_ids;
  let peers = Array.make (peer_count t) 0 in
  let n = ref 0 in
  Slot_index.iter t.index (fun peer _ ->
      peers.(!n) <- peer;
      incr n);
  write_entries t w peers;
  contents w

let snapshot_buckets ?(only = fun _ -> true) t buckets =
  let buckets = List.sort_uniq Int.compare buckets in
  let held = List.fold_left (fun n b -> n + Prelude.Vec.length t.bucket_members.(b)) 0 buckets in
  let peers = Array.make held 0 in
  let n = ref 0 in
  List.iter
    (fun b ->
      let members = t.bucket_members.(b) in
      for i = 0 to Prelude.Vec.length members - 1 do
        let peer = Prelude.Vec.get members i in
        if only peer then begin
          peers.(!n) <- peer;
          incr n
        end
      done)
    buckets;
  let w = Prelude.Codec.Writer.create () in
  write_entries t w (if !n = held then peers else Array.sub peers 0 !n);
  Prelude.Codec.Writer.contents w

(* What an apply reuses from one repair to the next in a domain: the
   incoming peers, ascending, and one entry's routers. *)
type apply_scratch = { incoming : Prelude.Vec.t; mutable routers : int array }

let apply_scratch =
  Domain.DLS.new_key (fun () -> { incoming = Prelude.Vec.create (); routers = Array.make 16 0 })

(* Whether the ascending [peers] hold [peer], between [lo] and [hi]
   exclusive. *)
let rec holds_peer peers peer lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  let p = Prelude.Vec.get peers mid in
  p = peer || if p < peer then holds_peer peers peer (mid + 1) hi else holds_peer peers peer lo mid

(* The first pass of [apply_entries]: decode and check every entry without
   building one, and collect the incoming peers.  A decode error raises
   [Reader.Failed], and wins over a check error anywhere, as does trailing
   input; otherwise the first entry's first failed check is returned. *)
let check_entries t ~replaced r incoming =
  let open Prelude.Codec.Reader in
  let nodes = Topology.Graph.node_count (graph t) in
  let failed = ref None and prev = ref (-1) in
  for _ = 1 to count_exn r do
    let peer = varint_exn r in
    if peer < 0 || peer >= Slot_index.key_limit then
      raise (Failed (Malformed "snapshot peer out of range"));
    let attach = varint_exn r in
    ignore (varint_exn r : int);
    let len = count_exn r in
    let last = ref (-1) and inside = ref (in_graph ~nodes attach) in
    for _ = 1 to len do
      let router = varint_exn r in
      if not (in_graph ~nodes router) then inside := false;
      last := router
    done;
    if Option.is_none !failed then begin
      if peer <= !prev then failed := Some "snapshot entries out of order"
      else if len = 0 then failed := Some "snapshot entry has an empty route"
      else if not (is_landmark t !last) then
        failed := Some "snapshot route does not end at a landmark"
      else if not !inside then failed := Some "snapshot names a router outside the graph"
      else if not (match replaced with None -> true | Some set -> set.(bucket_of peer)) then
        failed := Some "snapshot entry outside the replaced buckets";
      prev := peer
    end;
    Prelude.Vec.push incoming peer
  done;
  if not (is_exhausted r) then raise (Failed (Malformed "trailing bytes"));
  !failed

(* Remove the registrations of the marked buckets that are not incoming.
   Walking each bucket down from its last member, a swap-remove only
   moves a member already walked past, so the walk meets every member
   once and removes in the reverse of a forward scan's order. *)
let remove_stale t set incoming =
  let removed = ref 0 in
  for b = bucket_count - 1 downto 0 do
    if set.(b) then begin
      let members = t.bucket_members.(b) in
      for i = Prelude.Vec.length members - 1 downto 0 do
        let peer = Prelude.Vec.get members i in
        if not (holds_peer incoming peer 0 (Prelude.Vec.length incoming)) then begin
          remove_entry t ~peer (Slot_index.find t.index peer);
          incr removed
        end
      done
    end
  done;
  !removed

let rec same_routers (held : int array) (buf : int array) n i =
  i = n || (held.(i) = buf.(i) && same_routers held buf n (i + 1))

(* The second pass: read each checked entry's routers into the scratch
   buffer and write the entry only when [t] does not hold it verbatim;
   only a written entry gets an array of its own. *)
let apply_checked t r scratch =
  let open Prelude.Codec.Reader in
  let changed = ref 0 in
  for _ = 1 to count_exn r do
    let peer = varint_exn r in
    let attach = varint_exn r in
    let probes = varint_exn r in
    let len = count_exn r in
    if Array.length scratch.routers < len then
      scratch.routers <- Array.make (max len (2 * Array.length scratch.routers)) 0;
    let buf = scratch.routers in
    for i = 0 to len - 1 do
      buf.(i) <- varint_exn r
    done;
    let held = Slot_index.find t.index peer in
    if
      not
        (held >= 0 && t.attach.(held) = attach && t.probes.(held) = probes
        && Array.length t.routers.(held) = len
        && same_routers t.routers.(held) buf len 0)
    then begin
      let routers = Array.sub buf 0 len in
      if held >= 0 then remove_entry t ~peer held;
      store t ~peer ~routers ~refresh:false ~attach ~home:(landmark_of routers) ~probes;
      incr changed
    end
  done;
  !changed

(* Decode the rest of [r] as snapshot entries and make [t] agree with them:
   an entry [t] already holds verbatim is left alone, any other is written
   (replacing a differing registration of the same peer), and with
   [replaced] the registrations of the marked buckets that the entries lack
   are removed.  Every entry is decoded and checked before [t] changes,
   down to every router being a node of the graph: a registry indexes its
   buckets by router, so a foreign one must never reach it.  The bytes are
   then read a second time to write, so an entry [t] already holds
   allocates nothing.  A written entry is stamped now, but not counted as
   a [report_refresh]: learning a report through repair is not a client
   refresh. *)
let apply_entries t ~replaced r =
  let open Prelude.Codec.Reader in
  let scratch = Domain.DLS.get apply_scratch in
  Prelude.Vec.clear scratch.incoming;
  let start = pos r in
  match check_entries t ~replaced r scratch.incoming with
  | exception Failed e -> Error (error_to_string e)
  | Some reason -> Error (error_to_string (Malformed reason))
  | None -> (
      seek r start;
      match
        let removed =
          match replaced with None -> 0 | Some set -> remove_stale t set scratch.incoming
        in
        removed + apply_checked t r scratch
      with
      | changed -> Ok changed
      | exception (Failure msg | Invalid_argument msg) -> Error msg)

let apply_buckets ?replace t data =
  let replaced =
    Option.map
      (fun buckets ->
        let set = Array.make bucket_count false in
        List.iter (fun b -> set.(b) <- true) buckets;
        set)
      replace
  in
  apply_entries t ~replaced (Prelude.Codec.Reader.of_string data)

let restore ?backend ?spans oracle data =
  let open Prelude.Codec.Reader in
  let ( let* ) = Result.bind in
  let r = of_string data in
  let header =
    let* version = u8 r in
    if version <> snapshot_version then
      Error (Malformed (Printf.sprintf "unsupported snapshot version %d" version))
    else list r varint
  in
  match header with
  | Error e -> Error (error_to_string e)
  | Ok landmark_list -> (
      match create ?backend ?spans oracle ~landmarks:(Array.of_list landmark_list) with
      | exception Invalid_argument msg -> Error msg
      | t ->
          apply_entries t ~replaced:(Some (Array.make bucket_count true)) r
          |> Result.map (fun _ -> t))
