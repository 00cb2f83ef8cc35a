(** Extension E5: setup delay vs discovery quality.

    The paper's whole motivation: a live-streaming newcomer cannot wait for
    a coordinate system to converge.  On a latency-weighted map we charge
    each method its real protocol time (simulated milliseconds) and score
    the neighbor sets it can produce at that point:

    - proposed: a real {!Nearby.Protocol.join} per newcomer, timed from
      its start to its reply: the RTT to the winning landmark, one RTT to
      it for the traceroute ({!Nearby.Client.duration_ms}),
      then one RPC to a lone server at the first landmark over a loss-free
      transport;
    - GNP: parallel landmark pings + local minimization (free);
    - Meridian: one ring-walk search (parallel probes per step, forwarding
      hops accumulate; ring upkeep is steady-state and not charged);
    - Vivaldi after r rounds, one gossip period per round. *)

type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  vivaldi_rounds : int list;
  round_period_ms : float;
  seed : int;
}

val default_config : config
val quick_config : config

type row = {
  method_name : string;
  setup_ms : float;  (** Mean protocol time per newcomer. *)
  ratio : float;
  hit_ratio : float;
}

type result = {
  rows : row list;
  rpc_timeouts : int;  (** RPC timeouts across the proposed joins. *)
}

val run : config -> result

val row_json : row -> string

val gates : result -> Regression.gate list
(** Proposed D/Dclosest and setup time (lower is better), flags for
    "proposed has the lowest D/Dclosest" and "proposed is set up before
    Meridian", and zero RPC timeouts (exact). *)

val print : result -> unit
