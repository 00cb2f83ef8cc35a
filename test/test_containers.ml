(* Pqueue, Vec, Slot_index, Bitset, Union_find. *)

open Prelude

(* --- Pqueue --- *)

let test_pq_empty () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "is_empty" true (Pqueue.is_empty q);
  Alcotest.(check int) "length" 0 (Pqueue.length q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek none" true (Pqueue.peek q = None);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Pqueue.pop_exn: empty queue") (fun () ->
      ignore (Pqueue.pop_exn q))

let test_pq_ordering () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~priority:p (int_of_float p)) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let order = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_pq_peek_stable () =
  let q = Pqueue.create () in
  Pqueue.push q ~priority:2.0 "b";
  Pqueue.push q ~priority:1.0 "a";
  (match Pqueue.peek q with
  | Some (p, v) ->
      Alcotest.(check (float 0.0)) "peek priority" 1.0 p;
      Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "expected peek");
  Alcotest.(check int) "peek does not remove" 2 (Pqueue.length q)

let test_pq_clear_and_reuse () =
  let q = Pqueue.create ~capacity:2 () in
  for i = 1 to 50 do
    Pqueue.push q ~priority:(float_of_int (-i)) i
  done;
  Alcotest.(check int) "grew" 50 (Pqueue.length q);
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q);
  Pqueue.push q ~priority:1.0 99;
  Alcotest.(check bool) "reusable" true (snd (Pqueue.pop_exn q) = 99)

let test_pq_iter_unordered () =
  let q = Pqueue.create () in
  List.iter (fun i -> Pqueue.push q ~priority:(float_of_int i) i) [ 3; 1; 2 ];
  let sum = ref 0 in
  Pqueue.iter_unordered q (fun _ v -> sum := !sum + v);
  Alcotest.(check int) "visits all" 6 !sum

(* Popped and cleared values are collectable: the queue's vacated slots
   hold no reference to them. *)
let[@inline never] push_tracked q weak i ~priority =
  let v = Bytes.make 64 'x' in
  Weak.set weak i (Some v);
  Pqueue.push q ~priority v

let test_pq_releases_values () =
  let q = Pqueue.create () and weak = Weak.create 4 in
  push_tracked q weak 0 ~priority:1.0;
  push_tracked q weak 1 ~priority:2.0;
  ignore (Pqueue.pop q);
  ignore (Pqueue.pop q);
  push_tracked q weak 2 ~priority:3.0;
  push_tracked q weak 3 ~priority:4.0;
  Pqueue.clear q;
  Gc.full_major ();
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "value %d collected" i) false (Weak.check weak i))
    [ 0; 1; 2; 3 ];
  (* The queue itself is still live: it is its slots that let go. *)
  Alcotest.(check int) "queue still usable" 0 (Pqueue.length q)

let qcheck_pq_sorts =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:300
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q ~priority:p ()) priorities;
      let rec drain acc =
        match Pqueue.pop q with Some (p, ()) -> drain (p :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare priorities)

(* --- Vec --- *)

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check bool) "pop" true (Vec.pop v = Some 198);
  Alcotest.(check int) "pop shrinks" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of bounds") (fun () ->
      Vec.set v (-1) 0)

let test_vec_roundtrip () =
  let a = [| 4; 7; 1; 9 |] in
  Alcotest.(check (array int)) "of/to array" a (Vec.to_array (Vec.of_array a))

let test_vec_sort_iter () =
  let v = Vec.of_array [| 3; 1; 2 |] in
  Vec.sort v;
  Alcotest.(check (array int)) "sorted" [| 1; 2; 3 |] (Vec.to_array v);
  let acc = ref [] in
  Vec.iteri v (fun i x -> acc := (i, x) :: !acc);
  Alcotest.(check bool) "iteri order" true (List.rev !acc = [ (0, 1); (1, 2); (2, 3) ]);
  Alcotest.(check bool) "exists" true (Vec.exists v (fun x -> x = 2));
  Alcotest.(check bool) "not exists" false (Vec.exists v (fun x -> x = 5));
  Vec.clear v;
  Alcotest.(check int) "clear" 0 (Vec.length v);
  Alcotest.(check bool) "pop empty" true (Vec.pop v = None)

(* --- Bitset --- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "capacity" 100 (Bitset.capacity b);
  Alcotest.(check int) "empty cardinal" 0 (Bitset.cardinal b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 99;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem b 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem b 1);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Bitset.mem b 63);
  Alcotest.(check int) "cardinal after remove" 3 (Bitset.cardinal b)

let test_bitset_add_idempotent () =
  let b = Bitset.create 8 in
  Bitset.add b 3;
  Bitset.add b 3;
  Alcotest.(check int) "no double count" 1 (Bitset.cardinal b)

let test_bitset_iter_clear () =
  let b = Bitset.create 20 in
  List.iter (Bitset.add b) [ 2; 5; 19 ];
  let acc = ref [] in
  Bitset.iter b (fun i -> acc := i :: !acc);
  Alcotest.(check (list int)) "iter ascending" [ 2; 5; 19 ] (List.rev !acc);
  Bitset.clear b;
  Alcotest.(check int) "clear" 0 (Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 4 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds") (fun () ->
      ignore (Bitset.mem b 4))

let qcheck_bitset_model =
  QCheck.Test.make ~name:"bitset behaves like a set of ints" ~count:200
    QCheck.(list (int_range 0 63))
    (fun ops ->
      let b = Bitset.create 64 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun i ->
          Bitset.add b i;
          Hashtbl.replace model i ())
        ops;
      Bitset.cardinal b = Hashtbl.length model
      && List.for_all (fun i -> Bitset.mem b i) ops)

(* --- Slot_index --- *)

let slot_index_keys t = List.rev (Slot_index.fold (fun key slot acc -> (key, slot) :: acc) t [])

(* Random adds, removes and finds against a [Hashtbl] model of the live
   keys and a stack of freed slots: every answer matches, slots are reused
   last freed first, and the structure checks out after every step.  Keys
   come from [0, 40] plus the extreme 2^31 - 1, so the table grows from
   16 cells, stays well loaded and churns the same keys. *)
let qcheck_slot_index_model =
  let op = QCheck.Gen.(pair (int_range 0 2) (frequency [ (8, int_range 0 40); (1, return 0); (1, return ((1 lsl 31) - 1)) ])) in
  QCheck.Test.make ~name:"slot_index = Hashtbl model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 400) op))
    (fun ops ->
      let t = Slot_index.create () in
      let model = Hashtbl.create 16 and freed = ref [] and next = ref 0 in
      List.iter
        (fun (kind, key) ->
          (match kind with
          | 0 -> (
              match Hashtbl.find_opt model key with
              | Some _ -> (
                  match Slot_index.add t key with
                  | _ -> failwith "duplicate add accepted"
                  | exception Invalid_argument _ -> ())
              | None ->
                  let expected =
                    match !freed with
                    | s :: rest ->
                        freed := rest;
                        s
                    | [] ->
                        incr next;
                        !next - 1
                  in
                  let slot = Slot_index.add t key in
                  if slot <> expected then failwith "slot not reused last freed first";
                  Hashtbl.replace model key slot)
          | 1 ->
              let slot = Slot_index.remove t key in
              let expected = Option.value ~default:(-1) (Hashtbl.find_opt model key) in
              if slot <> expected then failwith "remove disagrees with the model";
              if slot >= 0 then begin
                Hashtbl.remove model key;
                freed := slot :: !freed
              end
          | _ ->
              let expected = Option.value ~default:(-1) (Hashtbl.find_opt model key) in
              if Slot_index.find t key <> expected then failwith "find disagrees with the model");
          Slot_index.check_invariants t)
        ops;
      Slot_index.length t = Hashtbl.length model
      && Slot_index.slot_bound t = !next
      && List.sort compare (slot_index_keys t)
         = List.sort compare (Hashtbl.fold (fun k s acc -> (k, s) :: acc) model []))

(* A cluster across the end of a 16-cell table.  [home16] is the index's
   hash at 16 cells; the keys picked with home 14 or 15 land in cells 14,
   15, 0, 1, 2, 3, so iteration (cell order) lists the last four first --
   which also checks that this copy of the hash is still the index's.
   Removing each key in turn shifts the rest back across the end. *)
let test_slot_index_wrapping_cluster () =
  let home16 key = (key * 0x4F1BBCDCBFA53E0B) lsr 59 in
  let pick n pred =
    let rec go key acc n = if n = 0 then List.rev acc else if pred key then go (key + 1) (key :: acc) (n - 1) else go (key + 1) acc n in
    go 0 [] n
  in
  let keys = pick 2 (fun k -> home16 k = 14) @ pick 4 (fun k -> home16 k = 15) in
  let fill () =
    let t = Slot_index.create ~capacity:8 () in
    List.iter (fun k -> ignore (Slot_index.add t k)) keys;
    t
  in
  let t = fill () in
  Slot_index.check_invariants t;
  let order = List.map fst (slot_index_keys t) in
  Alcotest.(check (list int)) "cluster wraps the end"
    (List.filteri (fun i _ -> i >= 2) keys @ List.filteri (fun i _ -> i < 2) keys)
    order;
  List.iter
    (fun gone ->
      let t = fill () in
      Alcotest.(check bool) "removed" true (Slot_index.remove t gone >= 0);
      Slot_index.check_invariants t;
      List.iter
        (fun k -> Alcotest.(check bool) (Printf.sprintf "find %d" k) (k <> gone) (Slot_index.mem t k))
        keys)
    keys

(* Growth keeps every key's slot, and a big index stays consistent. *)
let test_slot_index_growth () =
  let t = Slot_index.create () in
  let n = 10_000 in
  for k = 0 to n - 1 do
    Alcotest.(check int) "dense slots" k (Slot_index.add t (k * 7919))
  done;
  Slot_index.check_invariants t;
  for k = 0 to n - 1 do
    if Slot_index.find t (k * 7919) <> k then Alcotest.failf "key %d lost its slot" (k * 7919)
  done;
  for k = 0 to (n / 2) - 1 do
    ignore (Slot_index.remove t (k * 2 * 7919))
  done;
  Slot_index.check_invariants t;
  Alcotest.(check int) "half left" (n / 2) (Slot_index.length t);
  Alcotest.(check int) "slot bound kept" n (Slot_index.slot_bound t)

let test_slot_index_refusals () =
  let t = Slot_index.create () in
  List.iter (fun k -> ignore (Slot_index.add t k)) [ 0; 5; (1 lsl 31) - 1 ];
  let before = slot_index_keys t in
  List.iter
    (fun k ->
      (match Slot_index.add t k with
      | _ -> Alcotest.failf "key %d accepted" k
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) (Printf.sprintf "find %d" k) (-1) (Slot_index.find t k);
      Alcotest.(check int) (Printf.sprintf "remove %d" k) (-1) (Slot_index.remove t k))
    [ -1; 1 lsl 31; max_int; min_int ];
  (match Slot_index.add t 5 with
  | _ -> Alcotest.fail "duplicate accepted"
  | exception Invalid_argument _ -> ());
  Slot_index.check_invariants t;
  Alcotest.(check (list (pair int int))) "unchanged" before (slot_index_keys t);
  Alcotest.(check int) "length" 3 (Slot_index.length t);
  Alcotest.(check int) "slot bound" 3 (Slot_index.slot_bound t)

(* --- Union_find --- *)

let test_uf_basic () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial sets" 6 (Union_find.count_sets uf);
  Alcotest.(check bool) "union" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "repeat union" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "sets" 5 (Union_find.count_sets uf)

let test_uf_transitivity () =
  let uf = Union_find.create 10 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "0 ~ 3" true (Union_find.same uf 0 3);
  Alcotest.(check int) "one root" (Union_find.find uf 0) (Union_find.find uf 3)

let qcheck_uf_count =
  QCheck.Test.make ~name:"union_find set count matches merges" ~count:200
    QCheck.(list (pair (int_range 0 19) (int_range 0 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      let merges = List.fold_left (fun acc (a, b) -> if Union_find.union uf a b then acc + 1 else acc) 0 pairs in
      Union_find.count_sets uf = 20 - merges)

let suite =
  let q t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t in
  ( "containers",
    [
      Alcotest.test_case "pqueue empty" `Quick test_pq_empty;
      Alcotest.test_case "pqueue ordering" `Quick test_pq_ordering;
      Alcotest.test_case "pqueue peek" `Quick test_pq_peek_stable;
      Alcotest.test_case "pqueue clear/reuse" `Quick test_pq_clear_and_reuse;
      Alcotest.test_case "pqueue iter_unordered" `Quick test_pq_iter_unordered;
      Alcotest.test_case "pqueue releases popped values" `Quick test_pq_releases_values;
      q qcheck_pq_sorts;
      Alcotest.test_case "vec basic" `Quick test_vec_basic;
      Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
      Alcotest.test_case "vec roundtrip" `Quick test_vec_roundtrip;
      Alcotest.test_case "vec sort/iter" `Quick test_vec_sort_iter;
      q qcheck_slot_index_model;
      Alcotest.test_case "slot_index wrapping cluster" `Quick test_slot_index_wrapping_cluster;
      Alcotest.test_case "slot_index growth" `Quick test_slot_index_growth;
      Alcotest.test_case "slot_index refusals" `Quick test_slot_index_refusals;
      Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
      Alcotest.test_case "bitset idempotent add" `Quick test_bitset_add_idempotent;
      Alcotest.test_case "bitset iter/clear" `Quick test_bitset_iter_clear;
      Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
      q qcheck_bitset_model;
      Alcotest.test_case "union_find basic" `Quick test_uf_basic;
      Alcotest.test_case "union_find transitivity" `Quick test_uf_transitivity;
      q qcheck_uf_count;
    ] )
