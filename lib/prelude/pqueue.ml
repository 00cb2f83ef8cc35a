type 'a entry = { prio : float; value : 'a }
type 'a t = { mutable data : 'a entry array; mutable size : int }

(* Every slot at or past [size] holds this placeholder, never a real entry:
   a popped or cleared value must not stay reachable from the queue. *)
let vacant_slot : unit entry = { prio = 0.0; value = () }
let vacant () : 'a entry = Obj.magic vacant_slot

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) (vacant ()); size = 0 }
let length q = q.size
let is_empty q = q.size = 0

let grow q =
  let data = Array.make (2 * Array.length q.data) (vacant ()) in
  Array.blit q.data 0 data 0 q.size;
  q.data <- data

let push q ~priority v =
  if q.size = Array.length q.data then grow q;
  let i = ref q.size in
  q.size <- q.size + 1;
  q.data.(!i) <- { prio = priority; value = v };
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if q.data.(parent).prio > q.data.(!i).prio then begin
      let tmp = q.data.(parent) in
      q.data.(parent) <- q.data.(!i);
      q.data.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let sift_down q =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < q.size && q.data.(l).prio < q.data.(!smallest).prio then smallest := l;
    if r < q.size && q.data.(r).prio < q.data.(!smallest).prio then smallest := r;
    if !smallest <> !i then begin
      let tmp = q.data.(!smallest) in
      q.data.(!smallest) <- q.data.(!i);
      q.data.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.data.(0) in
    q.size <- q.size - 1;
    q.data.(0) <- q.data.(q.size);
    q.data.(q.size) <- vacant ();
    if q.size > 0 then sift_down q;
    Some (top.prio, top.value)
  end

let pop_exn q =
  match pop q with
  | Some r -> r
  | None -> invalid_arg "Pqueue.pop_exn: empty queue"

let peek q = if q.size = 0 then None else Some (q.data.(0).prio, q.data.(0).value)

let clear q =
  Array.fill q.data 0 q.size (vacant ());
  q.size <- 0

let iter_unordered q f =
  for i = 0 to q.size - 1 do
    f q.data.(i).prio q.data.(i).value
  done
