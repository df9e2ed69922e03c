(** Global-versus-sharded fairness: does splitting the lottery across
    per-CPU shards (with ticket-weighted placement, hysteresis rebalancing
    and work stealing) preserve proportional share?

    One spinner population with a 5-way ticket spread runs twice from the
    same seed: once under the historical single-CPU global lottery, once
    under a 4-way sharded scheduler on a 4-CPU kernel. Both runs
    are checked with a chi-square test of observed quanta against ticket
    entitlement — the sharded run both in aggregate and {e per shard}
    (each shard is one CPU's own lottery, so its members' CPU time should
    split proportionally to their entitlements renormalized over the
    shard). The sharded run also samples a time series of the migration /
    steal counters and the shard ticket-mass imbalance, the observables of
    the rebalancing policy. *)

type sample = {
  s_time : Lotto_sim.Time.t;
  s_migrations : int;  (** cumulative *)
  s_steals : int;  (** cumulative *)
  s_imbalance : float;
      (** max over shards of |mass - ideal| / ideal, where ideal is
          total mass / shards; the rebalancer holds this within its
          imbalance band (default 0.25) *)
}

type config = {
  label : string;
  cpus : int;
  names : string array;
  observed : int array;  (** quanta served per thread *)
  entitled : float array;  (** base-unit entitlement per thread *)
  aggregate_p : float;
  per_shard_p : (int * int * float) array;
      (** shard, member count, chi-square p over its members (nan when
          fewer than 2); empty with one CPU *)
  migrations : int;
  steals : int;
  shard_mass : float array;  (** final per-shard ticket mass *)
  series : sample list;  (** chronological; empty with one CPU *)
}

type t = {
  global : config;
  sharded : config;
  threads : int;
  duration : Lotto_sim.Time.t;
}

val run : ?duration:Lotto_sim.Time.t -> unit -> t
(** Seed 1994, 24 threads, 4 CPUs, 24 series samples; [duration] defaults
    to 120 s. *)

val min_shard_p : t -> float
(** The smallest per-shard chi-square p of the sharded run (ignoring
    degenerate single-member shards) — the acceptance gate is
    [min_shard_p >= 0.01]. *)

val print : t -> unit
val to_csv : t -> string
(** The sharded run's migration / imbalance time series. *)
