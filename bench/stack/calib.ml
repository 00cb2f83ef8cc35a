(* Machine-speed calibration for every timed interval.

   The benchmark runs on shared virtual machines whose speed drifts: the
   same pass runs 10-20% faster or slower for minutes at a time,
   and sometimes far slower while the hypervisor lends the core to
   others.  Medians over the passes of one run remove bursts, not a regime
   that covers the whole run.  Two things take most of the drift out:

   - Intervals are timed in process CPU time, which excludes the time the
     hypervisor or the kernel gives to anyone else.
   - Right before and right after each interval the benchmark runs a
     fixed kernel — integer arithmetic, then reads and writes over a
     buffer small enough to stay in the core's own cache after its first
     sweep — and reports the interval in reference seconds: its CPU time
     scaled by [reference_s] over the kernel's mean time around it.  The
     kernel is the benchmark's own code, which no change to the system
     under test touches; it allocates nothing, and the cache state the
     system leaves behind moves only its first sweep.

   A reference second is the time the reference machine (see README)
   takes for the same work in a steady period. *)

let iterations = 1_250_000
let sweeps = 20

(* 1 MiB, half of the reference machine's per-core L2 cache. *)
let buffer = Array.make (1 lsl 17) 0

(* The kernel's median CPU time on the reference machine. *)
let reference_s = 0.0037

let cpu_s = Sys.time

let kernel () =
  let h = ref 1 in
  for i = 1 to iterations do
    h := ((!h * 31) + i) lxor (!h lsr 7)
  done;
  let b = buffer in
  for k = 1 to sweeps do
    for i = 0 to Array.length b - 1 do
      Array.unsafe_set b i (Array.unsafe_get b i + k)
    done
  done;
  Sys.opaque_identity (!h + b.(0))

(* CPU seconds of one kernel run. *)
let measure () =
  let t0 = cpu_s () in
  ignore (kernel ());
  cpu_s () -. t0

(* The factor converting durations measured between two kernel runs to
   reference seconds. *)
let scale ~before ~after = reference_s /. ((before +. after) /. 2.0)

(* Run [f], returning its result and its CPU time in reference seconds. *)
let timed f =
  let before = measure () in
  let t0 = cpu_s () in
  let x = f () in
  let dt = cpu_s () -. t0 in
  (x, dt *. scale ~before ~after:(measure ()))
