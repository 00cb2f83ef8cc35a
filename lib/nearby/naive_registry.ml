type t = { landmark : Topology.Graph.node; paths : (int, int array) Hashtbl.t }

let create ~landmark = { landmark; paths = Hashtbl.create 64 }
let landmark t = t.landmark
let member_count t = Hashtbl.length t.paths
let mem t peer = Hashtbl.mem t.paths peer
let path_of t peer = Hashtbl.find_opt t.paths peer
let iter_members t f = Hashtbl.iter (fun p _ -> f p) t.paths

(* No router index: answering would scan every path. *)
let member_through _ _ ~except:_ = -1

let insert t ~peer ~routers =
  if Array.length routers = 0 then invalid_arg "Naive_registry.insert: empty path";
  if routers.(Array.length routers - 1) <> t.landmark then
    invalid_arg "Naive_registry.insert: path must end at the landmark";
  if peer < 0 || peer >= Topk.peer_limit then invalid_arg "Naive_registry.insert: peer out of range";
  if Hashtbl.mem t.paths peer then invalid_arg "Naive_registry.insert: peer already registered";
  Hashtbl.add t.paths peer (Array.copy routers)

let remove t peer =
  if not (Hashtbl.mem t.paths peer) then raise Not_found;
  Hashtbl.remove t.paths peer

let dtree_paths a b =
  let la = Array.length a and lb = Array.length b in
  let max_j = min la lb in
  let rec suffix j = if j < max_j && a.(la - 1 - j) = b.(lb - 1 - j) then suffix (j + 1) else j in
  let j = suffix 0 in
  if j = 0 then None else Some (la - j + (lb - j))

let dtree t p1 p2 =
  match (Hashtbl.find_opt t.paths p1, Hashtbl.find_opt t.paths p2) with
  | Some a, Some b -> dtree_paths a b
  | None, _ | _, None -> None

let query t ~routers ~k ?(exclude = fun _ -> false) () =
  if k <= 0 then []
  else begin
    (* Still the exhaustive O(n) scan the ablation is about; only the
       selection of the k best is bounded. *)
    let best = Topk.shared ~k in
    Hashtbl.iter
      (fun peer path ->
        if not (exclude peer) then
          match dtree_paths routers path with
          | Some d -> Topk.offer best (Topk.pack ~cost:d ~peer)
          | None -> ())
      t.paths;
    Topk.drain best
  end

let query_member t ~peer ~k =
  match Hashtbl.find_opt t.paths peer with
  | None -> raise Not_found
  | Some routers -> query t ~routers ~k ?exclude:(Topk.excluding peer) ()

(* --- Registry_intf.S ---------------------------------------------------- *)

include Registry_intf.Derive_batch (struct
  type nonrec t = t

  let landmark = landmark
  let mem = mem
  let insert = insert
end)

let backend_name = "naive"
let stats t = [ ("members", member_count t) ]

(* The naive store keeps no per-router index, so occupancy is derived the
   naive way too: count how many stored paths cross each router.  One
   O(total path length) scan — introspection is an offline operation. *)
let introspect t =
  let per_router = Hashtbl.create 256 in
  let words = ref 0 in
  Hashtbl.iter
    (fun _ path ->
      words := !words + 4 + Array.length path;
      Array.iter
        (fun router ->
          Hashtbl.replace per_router router
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_router router)))
        path)
    t.paths;
  Registry_intf.introspection_of_buckets ~members:(member_count t) ~approx_bytes:(8 * !words)
    (fun f -> Hashtbl.iter f per_router)

let check_invariants t =
  Hashtbl.iter
    (fun peer path ->
      let len = Array.length path in
      if len = 0 then failwith (Printf.sprintf "peer %d has an empty path" peer);
      if path.(len - 1) <> t.landmark then
        failwith (Printf.sprintf "peer %d path does not end at the landmark" peer))
    t.paths
