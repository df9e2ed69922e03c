(** Basic descriptive statistics over float arrays and lists.

    All functions raise [Invalid_argument] on empty input unless stated
    otherwise. Welford-style running statistics are provided by {!Running}
    for single-pass accumulation. *)

val mean : float array -> float
(** Arithmetic mean. *)

val variance : float array -> float
(** Unbiased sample variance (divides by [n - 1]); [0.] for singletons. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val coefficient_of_variation : float array -> float
(** [stddev / mean]. Raises [Invalid_argument] if the mean is zero. *)

val minimum : float array -> float
val maximum : float array -> float

val median : float array -> float
(** Median (average of the two middle elements for even sizes). Does not
    mutate its argument. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0., 100.], linear interpolation between
    closest ranks. Does not mutate its argument. *)

val sum : float array -> float
(** Kahan-compensated sum; [0.] on empty input. *)

val mean_list : float list -> float

(** Single-pass running mean/variance (Welford's algorithm). *)
module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** [0.] before any sample. *)

  val variance : t -> float
  (** Unbiased sample variance; [0.] with fewer than two samples. *)

  val stddev : t -> float

  val stderr_of_mean : t -> float
  (** Standard error of the mean, [stddev / sqrt count]; [infinity] before
      the second sample. *)
end

val linear_fit : (float * float) array -> float * float
(** Least-squares fit [y = a + b * x]; returns [(a, b)]. Raises
    [Invalid_argument] on fewer than two points or zero x-variance. *)

val ratio_error : observed:float -> expected:float -> float
(** Relative error [|observed - expected| / expected]. *)
