(** A fault plan: what the {!Injector} is allowed to do, and how often.

    Together with a scenario name and a seed, the plan fully determines a
    chaos run — replaying the same [(scenario, seed, plan)] triple
    reproduces the same faults at the same virtual times. *)

type t = {
  kill_prob : float;  (** per scheduling boundary: kill a random thread *)
  perturb_prob : float;
      (** per boundary: rotate one wait list (wakeup-order perturbation) *)
  sleep_prob : float;  (** per fault point inside a body: extra sleep *)
  yield_prob : float;  (** per fault point inside a body: extra yield *)
  max_kills : int;  (** total kill budget for the run *)
  max_sleep : Lotto_sim.Time.t;  (** injected sleeps last [1..max_sleep] *)
}

val default : t
(** Mild: occasional kills (budget 3), frequent reorderings. *)

val none : t
(** All probabilities zero — an injector with this plan does nothing and
    draws nothing from its PRNG stream. *)

val aggressive : t
(** High kill/perturb rates for bug hunts. *)

val validate : t -> unit
(** Raises [Invalid_argument] on probabilities outside [0,1] or negative
    budgets. *)

val to_string : t -> string
