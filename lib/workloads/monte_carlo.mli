(** Monte-Carlo integration with dynamically controlled ticket inflation
    (paper §5.2, Figure 6).

    Each task estimates [integral of sqrt(1 - x^2) on [0,1]] (i.e. pi/4) by
    uniform sampling, tracking the running relative error of its estimate.
    Periodically the task sets its funding ticket's amount proportional to
    the {e square} of its relative error, the paper's policy: since Monte-
    Carlo error decreases as [1/sqrt(trials)], a freshly started experiment
    holds a large ticket and rapidly catches up with older ones, tapering
    off as its error converges to theirs. *)

type t

val max_ticket : int
(** 10^9: the ticket amount a task starts with and the cap on every later
    one, within {!Lotto_tickets.Funding.max_amount}. *)

val spawn :
  Lotto_sim.Kernel.t ->
  Lotto_sched.Lottery_sched.t ->
  name:string ->
  rng:Lotto_prng.Rng.t ->
  from:Lotto_tickets.Funding.currency ->
  ?scale:float ->
  ?exponent:float ->
  ?window:Lotto_sim.Time.t ->
  ?start_at:Lotto_sim.Time.t ->
  unit ->
  t
(** A trial costs 50 us of CPU, and the task updates its funding every
    2000 trials. [scale] and [exponent] are the constants in
    [ticket = scale * error^exponent] (defaults 1e10 and 2 — the paper's
    square; its footnote 6 discusses linear and cubic variants, compared by
    the [mc-convergence] ablation); [window] recording bin width (default
    8 s); [start_at] virtual start time — Figure 6 staggers tasks by
    120 s. *)

val thread : t -> Lotto_sim.Types.thread
val trials : t -> int
val estimate : t -> float
(** Current estimate of pi/4 (NaN before any trial). *)

val relative_error : t -> float
(** Standard error of the mean over the estimate, [infinity] before two
    batches. *)

val current_ticket : t -> int
(** Current funding ticket amount (after the last inflation update). *)

val cumulative : t -> upto:Lotto_sim.Time.t -> int array
(** Cumulative trials per window — Figure 6's series. *)
