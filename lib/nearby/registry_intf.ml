(* The one seam every registry backend plugs into.

   The paper's contribution is a server data structure for "store recorded
   paths, answer k-nearest"; the repo has three implementations of that
   contract (path tree, naive scan, DHT directory).  This module type is
   the shared surface: the server, the experiments, the CLI and the
   benchmarks all talk to a first-class [(module S)] instead of a concrete
   backend, so a new backend (batching, caching, async, ...) is one module
   away.

   Conventions every implementation must honour:
   - [insert] rejects empty paths, paths not ending at the landmark,
     peers outside [0, 2^31) (a {!Topk} key's range) and duplicate peers
     with [Invalid_argument] (the path tree, which indexes buckets by
     router, also negative routers); [remove]/[query_member] raise
     [Not_found] for unknown peers.
   - [insert_many] is {!Derive_batch}'s: no backend writes its own.
   - [path_of] returns exactly the routers [insert] stored for the peer:
     the stored array itself, which several members with the same route
     may share, so callers never write into it.  The server's per-member
     slot references that array rather than keeping a copy.
   - [member_through t router ~except] names a member other than [except]
     whose stored path crosses [router], or returns -1.  It is a read of
     an index the backend already keeps: a backend without a router index
     answers -1 always, and replication then sends full reports.
   - [query] returns at most [k] (peer, dtree) pairs in ascending
     (dtree, peer) order -- equal-cost ties break to the lower peer id --
     so two correct backends return byte-identical answers.

   A backend is only the paper's index: store each peer's path, answer
   k-nearest.  Whether two replicas hold the same state, and how that
   state is persisted, is the server's business ([Server.digest],
   [Server.snapshot]), decided once above every backend. *)

type peer = int

(* How many of the busiest routers [introspect] names.  A constant rather
   than a parameter so every backend's top-k is comparable. *)
let hot_router_k = 8

(* A structural X-ray of a backend: how its storage is distributed over
   routers, which routers are hottest, and roughly how much memory it
   holds.  [occupancy] has one sample per (router, bucket) — the sample
   value is that bucket's size — so [Histogram.total occupancy] is the
   physical bucket count and the histogram's shape is the skew.
   [approx_bytes] is a words-times-8 estimate of the payload (paths,
   buckets, tables), not an exact heap measurement: good for comparing
   backends and spotting growth, not for accounting. *)
type introspection = {
  members : int;
  routers : int;  (* distinct storage buckets / routers known *)
  occupancy : Prelude.Histogram.t;
  hot_routers : (Topology.Graph.node * int) list;  (* top-k by bucket size, descending *)
  approx_bytes : int;
}

(* Build an introspection from one pass over (router, bucket-size) pairs:
   the shared tail of every backend's [introspect]. *)
let introspection_of_buckets ~members ~approx_bytes iter =
  let occupancy = Prelude.Histogram.create () in
  let routers = ref 0 in
  let hot = ref [] in
  iter (fun router size ->
      incr routers;
      Prelude.Histogram.add_log2 occupancy (float_of_int size);
      hot := (router, size) :: !hot);
  let hot_routers =
    List.sort (fun (r1, s1) (r2, s2) -> compare (s2, r1) (s1, r2)) !hot
    |> List.filteri (fun i _ -> i < hot_router_k)
  in
  { members; routers = !routers; occupancy; hot_routers; approx_bytes }

(* Combine per-landmark introspections: occupancies merge bucket-wise, hot
   lists re-rank summed per-router sizes, counts add.  Members add too:
   the landmark trees partition the server's peers. *)
let merge_introspections = function
  | [] ->
      {
        members = 0;
        routers = 0;
        occupancy = Prelude.Histogram.create ();
        hot_routers = [];
        approx_bytes = 0;
      }
  | parts ->
      let occupancy = Prelude.Histogram.create () in
      let hot = Hashtbl.create 16 in
      List.iter
        (fun p ->
          Prelude.Histogram.merge_into ~into:occupancy p.occupancy;
          List.iter
            (fun (router, size) ->
              Hashtbl.replace hot router
                (size + Option.value ~default:0 (Hashtbl.find_opt hot router)))
            p.hot_routers)
        parts;
      let hot_routers =
        Hashtbl.fold (fun router size acc -> (router, size) :: acc) hot []
        |> List.sort (fun (r1, s1) (r2, s2) -> compare (s2, r1) (s1, r2))
        |> List.filteri (fun i _ -> i < hot_router_k)
      in
      {
        members = List.fold_left (fun acc p -> acc + p.members) 0 parts;
        routers = List.fold_left (fun acc p -> acc + p.routers) 0 parts;
        occupancy;
        hot_routers;
        approx_bytes = List.fold_left (fun acc p -> acc + p.approx_bytes) 0 parts;
      }

let introspection_json i =
  let open Simkit.Json_str in
  obj
    [
      ("members", string_of_int i.members);
      ("routers", string_of_int i.routers);
      ("approx_bytes", string_of_int i.approx_bytes);
      ( "occupancy_log2",
        arr
          (List.map
             (fun (b, c) -> Printf.sprintf "[%d, %d]" b c)
             (Prelude.Histogram.to_assoc i.occupancy)) );
      ( "hot_routers",
        arr
          (List.map
             (fun (router, size) ->
               obj [ ("router", string_of_int router); ("bucket_size", string_of_int size) ])
             i.hot_routers) );
    ]

module type S = sig
  type t

  val backend_name : string
  val create : landmark:Topology.Graph.node -> t
  val landmark : t -> Topology.Graph.node
  val insert : t -> peer:peer -> routers:Topology.Graph.node array -> unit
  val remove : t -> peer -> unit
  val mem : t -> peer -> bool
  val member_count : t -> int
  val path_of : t -> peer -> Topology.Graph.node array option
  val iter_members : t -> (peer -> unit) -> unit
  val member_through : t -> Topology.Graph.node -> except:peer -> peer
  val dtree : t -> peer -> peer -> int option

  val query :
    t ->
    routers:Topology.Graph.node array ->
    k:int ->
    ?exclude:(peer -> bool) ->
    unit ->
    (peer * int) list

  val query_member : t -> peer:peer -> k:int -> (peer * int) list

  val insert_many : t -> (peer * Topology.Graph.node array) array -> unit
  (** Register a batch: [insert] of each entry in array order, after the
      whole batch is checked, so a bad entry leaves the backend untouched.
      Every backend takes it from {!Derive_batch}. *)

  val stats : t -> (string * int) list
  val introspect : t -> introspection
  val check_invariants : t -> unit
end

(* The singleton surface a backend must already have for its batch insert
   to be derived mechanically. *)
module type SINGLETON = sig
  type t

  val landmark : t -> Topology.Graph.node
  val mem : t -> peer -> bool
  val insert : t -> peer:peer -> routers:Topology.Graph.node array -> unit
end

(* The batch insert, derived from the singletons.  [insert_many] is the
   only batch insert there is: it checks every entry the way [insert]
   would -- peers repeated inside the batch included -- before the first
   write, then loops [insert], so a batched backend is the looped one. *)
module Derive_batch (B : SINGLETON) = struct
  let insert_many t entries =
    let landmark = B.landmark t in
    let seen = Prelude.Slot_index.create ~capacity:(Array.length entries) () in
    Array.iter
      (fun (peer, routers) ->
        let len = Array.length routers in
        if len = 0 then invalid_arg "insert_many: empty path";
        if routers.(len - 1) <> landmark then
          invalid_arg "insert_many: path must end at the landmark";
        Array.iter (fun r -> if r < 0 then invalid_arg "insert_many: negative router") routers;
        if peer < 0 || peer >= Prelude.Slot_index.key_limit then
          invalid_arg "insert_many: peer out of range";
        if B.mem t peer || Prelude.Slot_index.mem seen peer then
          invalid_arg "insert_many: peer already registered";
        ignore (Prelude.Slot_index.add seen peer))
      entries;
    Array.iter (fun (peer, routers) -> B.insert t ~peer ~routers) entries
end

(* A backend packed with its state and a metrics sink: the dynamic form the
   server and the experiments route every call through.  The trace records
   "registry_insert" / "registry_remove" / "registry_query" identically for
   every backend, through cells resolved at their first write;
   backend-specific costs (overlay hops, lookups) surface
   through [stats]. *)
type t =
  | Registry : {
      backend : (module S with type t = 'a);
      state : 'a;
      inserts : Simkit.Trace.counter_cell;
      removes : Simkit.Trace.counter_cell;
      queries : Simkit.Trace.counter_cell;
    }
      -> t

let create ?trace (module B : S) ~landmark =
  let trace = match trace with Some t -> t | None -> Simkit.Trace.create () in
  let cell = Simkit.Trace.counter_cell trace in
  Registry
    {
      backend = (module B);
      state = B.create ~landmark;
      inserts = cell "registry_insert";
      removes = cell "registry_remove";
      queries = cell "registry_query";
    }

let name (Registry r) =
  let module B = (val r.backend) in
  B.backend_name

let landmark (Registry r) =
  let module B = (val r.backend) in
  B.landmark r.state

let insert (Registry r) ~peer ~routers =
  let module B = (val r.backend) in
  Simkit.Trace.cell_incr r.inserts;
  B.insert r.state ~peer ~routers

let remove (Registry r) peer =
  let module B = (val r.backend) in
  Simkit.Trace.cell_incr r.removes;
  B.remove r.state peer

let mem (Registry r) peer =
  let module B = (val r.backend) in
  B.mem r.state peer

let member_count (Registry r) =
  let module B = (val r.backend) in
  B.member_count r.state

let path_of (Registry r) peer =
  let module B = (val r.backend) in
  B.path_of r.state peer

let iter_members (Registry r) f =
  let module B = (val r.backend) in
  B.iter_members r.state f

let member_through (Registry r) router ~except =
  let module B = (val r.backend) in
  B.member_through r.state router ~except

let dtree (Registry r) p1 p2 =
  let module B = (val r.backend) in
  B.dtree r.state p1 p2

(* [?exclude] goes through as given: no default to re-box per query. *)
let query (Registry r) ~routers ~k ?exclude () =
  let module B = (val r.backend) in
  Simkit.Trace.cell_incr r.queries;
  B.query r.state ~routers ~k ?exclude ()

let query_member (Registry r) ~peer ~k =
  let module B = (val r.backend) in
  Simkit.Trace.cell_incr r.queries;
  B.query_member r.state ~peer ~k

(* A batch keeps the per-op counter semantics: a batch of n counts as n,
   so dashboards cannot tell (and need not care) how calls were batched. *)
let insert_many (Registry r) entries =
  let module B = (val r.backend) in
  Simkit.Trace.cell_add r.inserts (Array.length entries);
  B.insert_many r.state entries

let stats (Registry r) =
  let module B = (val r.backend) in
  B.stats r.state

let introspect (Registry r) =
  let module B = (val r.backend) in
  B.introspect r.state

let check_invariants (Registry r) =
  let module B = (val r.backend) in
  B.check_invariants r.state

(* Sum assoc-list stats (as returned by [stats]) across several registries,
   e.g. the server's per-landmark instances. *)
let merge_stats lists =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun kvs ->
      List.iter
        (fun (key, v) ->
          Hashtbl.replace acc key (v + Option.value ~default:0 (Hashtbl.find_opt acc key)))
        kvs)
    lists;
  Hashtbl.fold (fun key v out -> (key, v) :: out) acc [] |> List.sort compare
