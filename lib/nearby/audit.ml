(* Online answer-quality auditing.

   The offline evaluators (Eval.Measure, Fig2) score a whole run after the
   fact; production wants the same signal live.  An auditor wraps the
   query path and, for a sampled fraction of replies, computes the ground
   truth the server cannot see — the actual nearest registered peers by
   BFS over the router graph — and streams three quality measures:

   - stretch: sum of true distances to the peers returned, over the sum to
     the best-possible set of the same size (1.0 = optimal);
   - recall@k: fraction of the true top-k present in the reply;
   - rank displacement: how far, on average, each returned peer sits below
     the position it occupies in the reply (0 = perfectly ordered truth).

   A full audit costs one BFS (O(V+E)) plus a sort of the registered
   population, which is why it is sampled: at rate 0.01 the auditor is
   noise; at rate 1.0 it is the offline evaluator running inline (and the
   consistency test pins exactly that equivalence). *)

(* Same clamp as Eval.Measure.unreachable_cost: an unreachable peer is
   "very far" rather than poisoning sums with max_int overflow.  (Not
   shared as code — eval depends on nearby, not the reverse.) *)
let unreachable_cost = max_int / 4

type t = {
  server : Server.t;
  rate : float;
  rng : Prelude.Prng.t;
  trace : Simkit.Trace.t;
  timeseries : Simkit.Timeseries.t option;
  clock : unit -> float;
}

let create ?(rate = 0.01) ?(seed = 0x5eed) ?timeseries ?clock server =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Audit.create: rate outside [0, 1]";
  {
    server;
    rate;
    rng = Prelude.Prng.create seed;
    trace = Simkit.Trace.create ();
    timeseries;
    clock = Option.value clock ~default:(fun () -> 0.0);
  }

let trace t = t.trace
let rate t = t.rate

let observe t name v =
  Simkit.Trace.observe t.trace name v;
  match t.timeseries with
  | None -> ()
  | Some ts -> Simkit.Timeseries.observe ts name ~now:(t.clock ()) v

(* Unconditional audit of one reply: ground truth from the audited peer's
   attachment router.  The reply is compared against the best set of the
   same size, so short replies (tiny populations) stay comparable. *)
let audit_reply t ~peer ~reply =
  match Server.attach_router t.server peer with
  | None -> Simkit.Trace.incr t.trace "audit_no_info"
  | Some attach_router ->
      let dist = Topology.Bfs.distances (Server.graph t.server) attach_router in
      let cost id =
        match Server.attach_router t.server id with
        | None -> unreachable_cost
        | Some router ->
            let d = dist.(router) in
            if d = max_int then unreachable_cost else d
      in
      let truth =
        Server.peer_ids t.server
        |> List.filter (fun id -> id <> peer)
        |> List.map (fun id -> (cost id, id))
        |> List.sort compare
      in
      let reply_ids = List.map fst reply in
      let size = min (List.length reply_ids) (List.length truth) in
      Simkit.Trace.incr t.trace "audit_samples";
      if size = 0 then Simkit.Trace.incr t.trace "audit_empty"
      else begin
        let opt = List.filteri (fun i _ -> i < size) truth in
        let d_opt = List.fold_left (fun acc (d, _) -> acc + d) 0 opt in
        let d_chosen = List.fold_left (fun acc id -> acc + cost id) 0 reply_ids in
        (* Stretch, guarding the degenerate zero-distance optimum the same
           way Measure.score does. *)
        (if d_opt = 0 then
           if d_chosen = 0 then observe t "audit_stretch" 1.0
           else Simkit.Trace.incr t.trace "audit_stretch_skipped"
         else observe t "audit_stretch" (float_of_int d_chosen /. float_of_int d_opt));
        (* Recall@k against the same-size optimal set. *)
        let opt_members = Hashtbl.create size in
        List.iter (fun (_, id) -> Hashtbl.replace opt_members id ()) opt;
        let inter = List.length (List.filter (Hashtbl.mem opt_members) reply_ids) in
        let recall = float_of_int inter /. float_of_int size in
        observe t "audit_recall_at_k" recall;
        if recall >= 1.0 then Simkit.Trace.incr t.trace "audit_exact";
        (* Rank displacement: position of each returned peer in the full
           truth order minus its position in the reply, averaged. *)
        let rank = Hashtbl.create (List.length truth) in
        List.iteri (fun i (_, id) -> Hashtbl.replace rank id i) truth;
        let displacement =
          List.mapi
            (fun i id ->
              let r = Option.value (Hashtbl.find_opt rank id) ~default:(List.length truth) in
              float_of_int (r - i))
            reply_ids
        in
        let n = List.length displacement in
        if n > 0 then
          observe t "audit_rank_displacement"
            (List.fold_left ( +. ) 0.0 displacement /. float_of_int n)
      end

let should_sample t =
  if t.rate >= 1.0 then true
  else if t.rate <= 0.0 then false
  else Prelude.Prng.unit_float t.rng < t.rate

(* Sampled entry point for callers that already hold the reply (the
   resilience harness audits inside its on-complete callback). *)
let sample_reply t ~peer ~reply =
  if should_sample t then audit_reply t ~peer ~reply
  else Simkit.Trace.incr t.trace "audit_not_sampled"

(* Drop-in query path: exactly Server.neighbors, plus a sampled audit. *)
let neighbors t ~peer ~k =
  let reply = Server.neighbors t.server ~peer ~k in
  sample_reply t ~peer ~reply;
  reply
