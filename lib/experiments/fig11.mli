(** Figures 10 & 11 — lottery-scheduled mutex (§6.1).

    Eight threads in two groups (A, B) with a 2:1 per-thread ticket ratio
    contend for one lottery-scheduled mutex, each iteration holding it for
    50 ms and then computing 50 ms. Over a two-minute run the paper
    measured 763 vs 423 acquisitions (1.80:1) and mean waiting times of
    450 ms vs 948 ms (1:2.11). *)

type group_result = {
  label : string;
  acquisitions : int;
  mean_wait : float;  (** seconds *)
  wait_stddev : float;
  histogram : Lotto_stats.Histogram.t;
}

type t = {
  group_a : group_result;
  group_b : group_result;
  acquisition_ratio : float;  (** A/B, ideal ~2 (paper observed 1.80) *)
  wait_ratio : float;  (** B/A, ideal ~2 (paper observed 2.11) *)
}

val run : ?seed:int -> ?duration:Lotto_sim.Time.t -> unit -> t

val print : t -> unit

val to_csv : t -> string
(** Serialize the result for external plotting. *)
