let bits = 32
let space = 1 lsl bits
let mask = space - 1

(* splitmix64 finalizer, truncated to the identifier space: cheap, well
   mixed, and deterministic across runs. *)
let hash_key key =
  let open Int64 in
  let z = add (of_int key) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z (of_int mask))

type member = {
  app_id : int;
  ring_id : int;
  (* finger.(i) = index (into the sorted member array) of the successor of
     ring_id + 2^i. *)
  fingers : int array;
}

type t = {
  ring : member array;  (* ascending ring_id *)
  member_count : int;  (* distinct app ids: [build] rejects duplicates *)
}

(* Index of the member owning [id]: the first member with ring_id >= id,
   wrapping to 0. *)
let successor_index ring id =
  let n = Array.length ring in
  (* Binary search for the first ring_id >= id. *)
  let lo = ref 0 and hi = ref (n - 1) and ans = ref n in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if ring.(mid).ring_id >= id then begin
      ans := mid;
      hi := mid - 1
    end
    else lo := mid + 1
  done;
  if !ans = n then 0 else !ans

let build ?(virtual_nodes = 1) members =
  let n0 = Array.length members in
  if n0 = 0 then invalid_arg "Chord.build: no members";
  if virtual_nodes < 1 then invalid_arg "Chord.build: virtual_nodes must be >= 1";
  let seen = Hashtbl.create n0 in
  Array.iter
    (fun m ->
      if Hashtbl.mem seen m then invalid_arg "Chord.build: duplicate member";
      Hashtbl.add seen m ())
    members;
  let with_ids =
    Array.concat
      (List.init virtual_nodes (fun replica ->
           Array.map
             (fun app_id ->
               {
                 app_id;
                 ring_id = hash_key ((app_id lxor 0x5a5a5a) + (replica * 0x9e3779));
                 fingers = [||];
               })
             members))
  in

  Array.sort (fun a b -> compare (a.ring_id, a.app_id) (b.ring_id, b.app_id)) with_ids;
  let n = Array.length with_ids in
  (* Hash collisions between positions would break ownership; perturb until
     distinct (astronomically rare at our scales). *)
  for i = 1 to n - 1 do
    if with_ids.(i).ring_id = with_ids.(i - 1).ring_id then
      with_ids.(i) <-
        { (with_ids.(i)) with ring_id = (with_ids.(i).ring_id + i) land mask }
  done;
  Array.sort (fun a b -> compare (a.ring_id, a.app_id) (b.ring_id, b.app_id)) with_ids;
  let ring =
    Array.map
      (fun m ->
        let fingers =
          Array.init bits (fun i ->
              successor_index with_ids ((m.ring_id + (1 lsl i)) land mask))
        in
        { m with fingers })
      with_ids
  in
  { ring; member_count = n0 }

let members t =
  Array.to_list t.ring
  |> List.map (fun m -> m.app_id)
  |> List.sort_uniq compare
  |> Array.of_list

let member_count t = t.member_count

(* First ring position of the member: where its lookups start. *)
let index_of t app_id =
  let n = Array.length t.ring in
  let i = ref 0 in
  while !i < n && t.ring.(!i).app_id <> app_id do
    incr i
  done;
  if !i < n then !i else -1

let owner_of t ~key = t.ring.(successor_index t.ring (hash_key key)).app_id

(* Is ring id [x] in the clockwise-open interval (a, b]? *)
let in_interval x ~after:a ~upto:b =
  if a < b then x > a && x <= b else x > a || x <= b

(* The hop after ring position [current] toward [target]: the successor
   when the target lies between the two, else the farthest finger that
   precedes the target. *)
let next_hop t current target =
  let succ = (current + 1) mod Array.length t.ring in
  if in_interval target ~after:t.ring.(current).ring_id ~upto:t.ring.(succ).ring_id then succ
  else begin
    let best = ref succ in
    let fingers = t.ring.(current).fingers in
    for i = 0 to Array.length fingers - 1 do
      let f = fingers.(i) in
      if
        f <> current
        && in_interval t.ring.(f).ring_id ~after:t.ring.(current).ring_id ~upto:target
        && in_interval t.ring.(f).ring_id ~after:t.ring.(!best).ring_id ~upto:target
      then best := f
    done;
    if !best = current then succ else !best
  end

let lookup t ~from ~key =
  let start = index_of t from in
  if start < 0 then invalid_arg "Chord.lookup: unknown member";
  let target = hash_key key in
  let owner_index = successor_index t.ring target in
  let current = ref start and hops = ref 0 in
  while !current <> owner_index do
    current := next_hop t !current target;
    incr hops
  done;
  (t.ring.(owner_index).app_id, !hops)

let check_invariants t =
  let n = Array.length t.ring in
  let fail fmt = Printf.ksprintf failwith fmt in
  for i = 1 to n - 1 do
    if t.ring.(i).ring_id <= t.ring.(i - 1).ring_id then fail "ring ids not strictly ascending"
  done;
  Array.iteri
    (fun mi m ->
      Array.iteri
        (fun fi f ->
          let target = (m.ring_id + (1 lsl fi)) land mask in
          let expected = successor_index t.ring target in
          if f <> expected then fail "member %d finger %d wrong" mi fi)
        m.fingers)
    t.ring
