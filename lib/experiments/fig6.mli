(** Figure 6 — Monte-Carlo execution rates under dynamic ticket inflation.

    Three identical Monte-Carlo integrations start staggered (the paper
    starts them two minutes apart) inside one mutually-trusting currency.
    Each task periodically sets its ticket value proportional to the square
    of its current relative error, so a newly started task runs at a high
    rate that tapers off as its error approaches the older tasks' — the
    cumulative-trials curves converge ("bumps" in the older curves mark
    each newcomer's catch-up phase). *)

type task_result = {
  name : string;
  start_at : Lotto_sim.Time.t;
  cumulative : int array;  (** trials per window, cumulative *)
  final_trials : int;
  final_error : float;
  final_estimate : float;
}

type t = { window : Lotto_sim.Time.t; tasks : task_result array }

val run :
  ?seed:int ->
  ?duration:Lotto_sim.Time.t ->
  ?stagger:Lotto_sim.Time.t ->
  unit ->
  t
(** Defaults: 600 s run, 120 s stagger, 8 s windows. *)

val print : t -> unit

val convergence_spread : t -> float
(** [(max final trials - min final trials) / max final trials] — small when
    the curves have converged. *)

val to_csv : t -> string
(** Serialize the result for external plotting. *)
