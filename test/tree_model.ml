(* A reference for the path tree's answers, and the random operation
   sequences the tree is checked against it with.

   The model keeps every member's routers and costs in a list and answers
   by scanning all of them: a member's distance from a walk is the least
   walk cost plus member cost over the routers both name.  On sink-tree
   paths that is the naive registry's dtree; on a path that repeats a
   router it is what the tree's buckets give, one entry per occurrence. *)

type member = { peer : int; routers : int array; costs : int array }
type t = { mutable members : member list }

let create () = { members = [] }

let add m ~peer ~routers ~costs =
  let len = Array.length routers in
  m.members <- { peer; routers = Array.copy routers; costs = Array.sub costs 0 len } :: m.members

let remove m peer = m.members <- List.filter (fun x -> x.peer <> peer) m.members
let find m peer = List.find (fun x -> x.peer = peer) m.members

let distance ~routers ~costs x =
  let best = ref max_int in
  for i = 0 to Array.length routers - 1 do
    for j = 0 to Array.length x.routers - 1 do
      if routers.(i) = x.routers.(j) then best := Int.min !best (costs.(i) + x.costs.(j))
    done
  done;
  !best

(* The [k] smallest candidates, as the ints [distance lsl 31 lor peer],
   kept in a sorted list. *)
let query m ~routers ~costs ~k ~except =
  let rec insert key = function x :: rest when x < key -> x :: insert key rest | l -> key :: l in
  let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
  List.fold_left
    (fun best x ->
      let d = if x.peer = except then max_int else distance ~routers ~costs x in
      if d = max_int then best else take k (insert ((d lsl 31) lor x.peer) best))
    [] m.members
  |> List.map (fun key -> (key land ((1 lsl 31) - 1), key lsr 31))

let query_member m ~peer ~k =
  let x = find m peer in
  query m ~routers:x.routers ~costs:x.costs ~k ~except:peer

(* The member other than [except] nearest to [router], ties to the lower
   id; -1 when none crosses it. *)
let member_through m router ~except =
  let best = ref None in
  List.iter
    (fun x ->
      if x.peer <> except then
        Array.iteri
          (fun j r ->
            if r = router then
              match !best with
              | Some key when key <= (x.costs.(j), x.peer) -> ()
              | _ -> best := Some (x.costs.(j), x.peer))
          x.routers)
    m.members;
  match !best with Some (_, p) -> p | None -> -1

(* The lowest member whose routers and costs equal [x]'s: the one the
   tree keys [x]'s route by. *)
let lowest_sharing m x =
  List.fold_left
    (fun acc y -> if y.routers = x.routers && y.costs = x.costs then Int.min acc y.peer else acc)
    max_int m.members

(* --- Operation sequences ------------------------------------------------ *)

(* A sink tree of 12 routers toward landmark 0, attach routers at depths
   1-4: the landmark's and the inner routers' buckets hold several cost
   groups each, and routes from routers 3 and 4 (and from 5 and 6's
   subtrees) tie at the router they meet at. *)
let parent = [| -1; 0; 0; 1; 1; 2; 3; 3; 4; 5; 6; 8 |]

let path r =
  let rec climb r acc = if r = 0 then List.rev (0 :: acc) else climb parent.(r) (r :: acc) in
  Array.of_list (climb r [])

(* The route from [r], with its first router named twice when
   [stutter] (a traceroute answered twice by one router). *)
let route ~stutter r = if stutter then Array.append [| r |] (path r) else path r

type op = Add of int * int array | Drop of int

(* Grow to [n] members, churn (half inserts, half removes), then remove
   four in five of those left: splits, shifts and merges all happen, in
   the landmark's bucket and in the busiest route's member run.  An
   insert takes, with probability 1/2, a route of its own (a fresh first
   router [12 + peer] ahead of a random router's path: these tie at that
   router); 3/8, the busiest route, from router 10; 1/8, a random
   router's route, stuttering one time in eight when [stutters].  New
   ids ascend, descend or come in random order, so in the last two a new
   member often sorts below its route's lowest.  One removal in three
   takes the lowest member of a random member's route. *)
let ops ?(stutters = true) ~order ~seed ~n () =
  let rng = Prelude.Prng.create seed in
  let limit = 2 * n in
  let fresh =
    match order with
    | `Ascending -> Array.init limit Fun.id
    | `Descending -> Array.init limit (fun i -> limit - 1 - i)
    | `Random ->
        let ids = Array.init limit Fun.id in
        for i = limit - 1 downto 1 do
          let j = Prelude.Prng.int rng (i + 1) in
          let x = ids.(i) in
          ids.(i) <- ids.(j);
          ids.(j) <- x
        done;
        ids
  in
  let next = ref 0 and live = ref [||] and ops = ref [] in
  let add () =
    let peer = fresh.(!next) in
    incr next;
    let r = 1 + Prelude.Prng.int rng (Array.length parent - 1) in
    let routers =
      match Prelude.Prng.int rng 8 with
      | 0 | 1 | 2 | 3 -> Array.append [| Array.length parent + peer |] (path r)
      | 4 | 5 | 6 -> path 10
      | _ -> route ~stutter:(stutters && Prelude.Prng.int rng 8 = 0) r
    in
    live := Array.append !live [| (peer, routers) |];
    ops := Add (peer, routers) :: !ops
  in
  let drop () =
    let i = Prelude.Prng.int rng (Array.length !live) in
    let i =
      if Prelude.Prng.int rng 3 > 0 then i
      else begin
        (* The lowest member on the same route as member [i]. *)
        let routers = snd !live.(i) and best = ref i in
        Array.iteri
          (fun j (p, r) -> if r = routers && p < fst !live.(!best) then best := j)
          !live;
        !best
      end
    in
    ops := Drop (fst !live.(i)) :: !ops;
    live := Array.append (Array.sub !live 0 i) (Array.sub !live (i + 1) (Array.length !live - i - 1))
  in
  for _ = 1 to n do
    add ()
  done;
  for _ = 1 to n / 2 do
    if Prelude.Prng.int rng 2 = 0 then add () else drop ()
  done;
  for _ = 1 to 4 * Array.length !live / 5 do
    drop ()
  done;
  List.rev !ops

(* Check a tree against [model] after [op]: a query from a random router
   (stuttering or not), the query of the member just added and of a
   random member's route's lowest member (an asker heading its route's
   entries), and [member_through] at a random router, both with no
   exception and excepting the member it names.  [tree_query],
   [tree_query_member] and [tree_member_through] are the tree's. *)
let agrees ~rng ~costs_of model ~tree_query ~tree_query_member ~tree_member_through op =
  let ok = ref true in
  let check b = if not b then ok := false in
  let r = Prelude.Prng.int rng (Array.length parent) in
  let routers = route ~stutter:(r > 0 && Prelude.Prng.int rng 4 = 0) r in
  let costs = costs_of routers in
  check (tree_query ~routers ~costs ~k:5 = query model ~routers ~costs ~k:5 ~except:(-1));
  (match op with
  | Add (peer, _) -> check (tree_query_member ~peer ~k:5 = query_member model ~peer ~k:5)
  | Drop _ -> ());
  (match model.members with
  | [] -> ()
  | members ->
      let x = List.nth members (Prelude.Prng.int rng (List.length members)) in
      let lowest = lowest_sharing model x in
      check (tree_query_member ~peer:lowest ~k:5 = query_member model ~peer:lowest ~k:5));
  let router = Prelude.Prng.int rng (Array.length parent) in
  let head = member_through model router ~except:(-1) in
  check (tree_member_through router ~except:(-1) = head);
  check (tree_member_through router ~except:head = member_through model router ~except:head);
  !ok
