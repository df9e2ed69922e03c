(** Pearson chi-square goodness-of-fit testing, used to validate that lottery
    draws follow their ticket-proportional distribution (paper Section 2). *)

val statistic : observed:int array -> expected:float array -> float
(** Pearson statistic [sum ((o - e)^2 / e)]. Raises [Invalid_argument] on
    length mismatch, empty input, or a nonpositive expected count. *)

val degrees_of_freedom : cells:int -> int
(** [cells - 1]. *)

val p_value : statistic:float -> df:int -> float
(** Upper-tail probability [P(X >= statistic)] for a chi-square distribution
    with [df] degrees of freedom, via the regularized incomplete gamma
    function. Accurate to ~1e-10 over the ranges used here. *)

val goodness_of_fit :
  ?alpha:float -> observed:int array -> weights:float array -> unit -> bool
(** [true] when the fit is {e not} rejected at significance level [alpha]
    (default [0.001] — deliberately loose so randomized tests are stable
    across seeds). [weights] are unnormalized expected proportions;
    expected counts are derived from the observed total. *)
