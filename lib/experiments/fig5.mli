(** Figure 5 — fairness over time.

    Two tasks with a 2:1 allocation run for 200 seconds; average iteration
    rates are computed over a series of 8-second windows. The paper's
    observed averages were 25378 and 12619 iterations/sec, a 2.01:1 ratio,
    with per-window rates staying close to the allocation throughout. *)

type t = {
  window : Lotto_sim.Time.t;
  rates_a : float array;  (** iterations/sec per window *)
  rates_b : float array;
  overall_ratio : float;
}

val run : ?seed:int -> ?duration:Lotto_sim.Time.t -> ?jobs:int -> unit -> t
(** Windows are 8 s wide. The figure is a single 200-second kernel (the
    windows slice one timeline), so its task list is a singleton: [jobs]
    is accepted for harness uniformity and the run is sequential
    regardless. *)

val print : t -> unit

val window_ratios : t -> float array

val to_csv : t -> string
(** Serialize the result for external plotting. *)
