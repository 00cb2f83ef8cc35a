(* The event queue is one binary min-heap ordered by (time, seq), where
   [seq] is the schedule counter: equal-time events pop in schedule (FIFO)
   order, and an event scheduled at the current time while another runs
   queues behind every event already due then.  [step] pops the minimum
   and runs it.

   The heap is three parallel arrays -- times (a flat float array), seqs
   and bodies -- so an event costs no record of its own, and a popped
   slot's body is overwritten with [noop] so an executed closure is not
   kept alive by the queue. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable bodies : (unit -> unit) array;
  mutable size : int;
  mutable time : float;
  mutable next_seq : int;
  mutable processed : int;
}

let noop () = ()
let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    bodies = Array.make initial_capacity noop;
    size = 0;
    time = 0.0;
    next_seq = 0;
    processed = 0;
  }

let now t = t.time

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0.0 and seqs = Array.make cap 0 and bodies = Array.make cap noop in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.bodies 0 bodies 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.bodies <- bodies

(* Copy slot [src] over slot [dst]. *)
let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.bodies.(dst) <- t.bodies.(src)

(* Is slot [i] due before slot [j]? *)
let earlier t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

(* Queue [f] at [time], which the callers check is not in the past.
   Inlined into both, so [schedule]'s sum stays an unboxed float. *)
let[@inline] push t time f =
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift the hole up from the end.  The new event has the largest seq, so
     it passes exactly the ancestors due strictly later. *)
  let i = ref t.size in
  while !i > 0 && t.times.((!i - 1) / 2) > time do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.bodies.(!i) <- f;
  t.size <- t.size + 1

let schedule_at t ~time f =
  if time < t.time then invalid_arg "Engine.schedule_at: time is in the past";
  push t time f

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  push t (t.time +. delay) f

let step t =
  if t.size = 0 then false
  else begin
    let time = t.times.(0) and body = t.bodies.(0) in
    let last = t.size - 1 in
    t.size <- last;
    (* The last entry leaves its slot, vacated, and the root's hole sifts
       down to where it belongs. *)
    let ltime = t.times.(last) and lseq = t.seqs.(last) and lbody = t.bodies.(last) in
    t.bodies.(last) <- noop;
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let c = if l + 1 < last && earlier t (l + 1) l then l + 1 else l in
        let ctime = t.times.(c) in
        if ctime < ltime || (ctime = ltime && t.seqs.(c) < lseq) then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else sifting := false
      end
    done;
    if last > 0 then begin
      t.times.(!i) <- ltime;
      t.seqs.(!i) <- lseq;
      t.bodies.(!i) <- lbody
    end;
    t.time <- time;
    t.processed <- t.processed + 1;
    body ();
    true
  end

let run ?until t =
  let continue = ref true in
  while !continue && t.size > 0 do
    match until with
    | Some limit when t.times.(0) > limit -> continue := false
    | _ -> ignore (step t)
  done;
  match until with Some limit when limit > t.time -> t.time <- limit | _ -> ()

let pending t = t.size
let processed t = t.processed
