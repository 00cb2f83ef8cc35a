(** The paper's thesis, end to end: how soon does a newcomer {e see video}?

    A swarm is already streaming.  Newcomers arrive mid-stream and must
    (1) discover neighbors, then (2) buffer enough contiguous chunks to
    start playback.  Discovery methods pay their real protocol time on the
    shared simulation clock:

    - proposed: one {!Nearby.Protocol.join} — landmark pings, one
      traceroute ({!Nearby.Client.duration_ms}), then one RPC
      to a lone server at the first landmark — whose reply is the
      server's regional answer;
    - random: zero discovery time, uniform random neighbors — the fastest
      possible discovery with the worst proximity;
    - ideal-coords: an {e idealized} coordinate system — perfect closest
      neighbors, but only after the convergence delay (rounds x period);
      real Vivaldi would be strictly worse.

    The figure of merit is time-to-playback from arrival: discovery delay
    + buffering delay, per newcomer. *)

type config = {
  routers : int;
  initial_peers : int;
  newcomers : int;
  k : int;
  vivaldi_rounds : int;
  round_period_ms : float;
  arrival_window_ms : float * float;  (** Newcomers arrive uniformly here. *)
  session : Streaming.Session.params;
  seed : int;
}

val default_config : config
val quick_config : config

type row = {
  method_name : string;
  mean_discovery_ms : float;
  mean_buffering_ms : float;  (** From mesh attachment to playback start. *)
  mean_time_to_play_ms : float;  (** Arrival to playback (the sum, over starters). *)
  started_fraction : float;  (** Newcomers playing by the end. *)
  mean_neighbor_hops : float;  (** Mesh proximity the method bought. *)
}

val run : config -> row list
val print : row list -> unit
