type config = { max_ttl : int; drop_prob : float; probes_per_hop : int }

let default_config = { max_ttl = 64; drop_prob = 0.0; probes_per_hop = 1 }

type result = { path : Path.t; probes_sent : int; rtt_ms : float option }

(* Without a latency table a link costs 1 ms, so the hop count is the
   one-way latency and no route is materialized. *)
let[@inline] one_way_latency latency oracle ~src ~dst =
  match latency with
  | None -> (
      match Route_oracle.route_length oracle ~src ~dst with
      | n when n = max_int -> infinity
      | n -> float_of_int n)
  | Some table -> (
      match Route_oracle.route_array oracle ~src ~dst with
      | [||] -> infinity
      | routers -> Topology.Latency.path_latency table routers)

let[@inline] noisy rng v =
  match rng with
  | None -> v
  | Some rng -> v *. (1.0 +. (0.05 *. (Prelude.Prng.unit_float rng -. 0.5) *. 2.0))

(* Inlined into [ping] and [closest], so the RTT stays an unboxed float
   until a caller receives it. *)
let[@inline] rtt latency rng oracle ~src ~dst =
  let one_way = one_way_latency latency oracle ~src ~dst in
  if one_way = infinity then infinity else noisy rng (2.0 *. one_way)

let ping ?latency ?rng oracle ~src ~dst = rtt latency rng oracle ~src ~dst

(* One ping per destination, in array order, so a noisy run draws what
   [ping] in a loop would; nothing is boxed until the winner's RTT is
   returned. *)
let closest ?latency ?rng oracle ~src dsts =
  let best = ref dsts.(0) and best_rtt = ref infinity in
  for i = 0 to Array.length dsts - 1 do
    let dst = dsts.(i) in
    let rtt = rtt latency rng oracle ~src ~dst in
    if rtt < !best_rtt || (rtt = !best_rtt && dst < !best) then begin
      best := dst;
      best_rtt := rtt
    end
  done;
  (!best, !best_rtt)

let run ?(config = default_config) ?latency ?rng oracle ~src ~dst =
  if config.max_ttl < 1 then invalid_arg "Probe.run: max_ttl must be >= 1";
  if config.probes_per_hop < 1 then invalid_arg "Probe.run: probes_per_hop must be >= 1";
  if config.drop_prob < 0.0 || config.drop_prob >= 1.0 then
    invalid_arg "Probe.run: drop_prob must be in [0,1)";
  match Route_oracle.route_array oracle ~src ~dst with
  | [||] -> { path = { Path.src; dst; hops = [||] }; probes_sent = 0; rtt_ms = None }
  | routers ->
      let n_hops = Array.length routers - 1 in
      let recorded = min n_hops config.max_ttl in
      let probes = ref 0 in
      let hops = Array.make (recorded + 1) Path.Anonymous in
      hops.(0) <- Path.Known src;
      for i = 1 to recorded do
        probes := !probes + config.probes_per_hop;
        let router = routers.(i) in
        let responds =
          router = dst || router = src
          ||
          match rng with
          | None -> true
          | Some rng ->
              (* Each of the probes_per_hop packets independently gets an
                 answer; the hop is anonymous only if all are dropped. *)
              let rec any k =
                k > 0 && (Prelude.Prng.unit_float rng >= config.drop_prob || any (k - 1))
              in
              any config.probes_per_hop
        in
        hops.(i) <- (if responds then Path.Known router else Path.Anonymous)
      done;
      let path = { Path.src; dst; hops } in
      let rtt_ms =
        if Path.is_complete path then begin
          let one_way =
            match latency with
            | Some table -> Topology.Latency.path_latency table routers
            | None -> float_of_int n_hops
          in
          Some (noisy rng (2.0 *. one_way))
        end
        else None
      in
      { path; probes_sent = !probes; rtt_ms }
