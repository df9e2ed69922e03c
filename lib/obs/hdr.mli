(** Bounded-memory log-linear histogram for latency metrics.

    A fixed array of integer buckets covering [0, max_value]: values below
    [2^sub_bits] get exact unit-width buckets; above that, each power-of-two
    range is split into [2^sub_bits] linear sub-buckets, so the bucket width
    at value [v] is at most [v / 2^sub_bits]. Reported quantiles are bucket
    midpoints, giving a guaranteed relative error of at most
    {!max_relative_error} [= 2^-sub_bits] against the exact sample (half
    that in expectation). This is the HdrHistogram construction, sized for
    microsecond latencies.

    {!record} is O(1), touches only preallocated [int] state, and allocates
    {e nothing} per sample — the property the [obs-overhead/hdr] benchmark
    gates on minor words. Its bucket index finds the sample's top bit by a
    binary search of fixed depth (six halvings of the 63-bit int), so a
    sample costs the same at every magnitude, with no loop and no C call.
    Memory is fixed at creation (about
    [(log2 max_value - sub_bits + 2) * 2^sub_bits] words — ~7 KB at the
    defaults) regardless of how many samples are recorded, so a registry of
    thousands of histograms survives runs with millions of samples.
    Histograms with identical parameters {!merge}, enabling per-domain
    accumulation with [Lotto_par] fan-in. *)

type t

val create : ?sub_bits:int -> ?max_value:int -> unit -> t
(** [sub_bits] (default 5, range 1..16) sets the precision: relative error
    is bounded by [2^-sub_bits]. [max_value] (default [2^30], must be
    [>= 2^sub_bits]) is the largest exactly-tracked value; larger samples
    are clamped into the top bucket and counted by {!clamped} (they still
    contribute their exact value to {!sum} and {!max_value_seen}). *)

val record : t -> int -> unit
(** Record one sample. Negative values clamp to 0. O(1) in a fixed number
    of steps, zero allocation. *)

val count : t -> int
(** Samples recorded (including clamped ones). *)

val clamped : t -> int
(** Samples that exceeded [max_value] and were clamped into the top bucket
    (their quantile estimates are floored at [max_value]). *)

val sum : t -> int
(** Exact sum of recorded samples (unclamped values). *)

val min_value : t -> int
(** Exact minimum sample. Raises [Invalid_argument] when empty. *)

val max_value_seen : t -> int
(** Exact maximum sample. Raises [Invalid_argument] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0., 100.]: the midpoint of the bucket
    holding the sample of rank [ceil (p/100 * count)], clamped into
    [[min_value, max_value_seen]]. Within {!max_relative_error} of the
    exact order statistic. Raises [Invalid_argument] when empty or [p] is
    out of range. *)

val max_relative_error : t -> float
(** [2^-sub_bits]: guaranteed bound on [|estimate - exact| / exact] for any
    unclamped quantile. *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds every bucket of [src] into [into]. Raises
    [Invalid_argument] unless both were created with the same [sub_bits]
    and [max_value]. [src] is unchanged. *)

val copy : t -> t
(** Independent snapshot. *)

val reset : t -> unit

val iter_buckets : t -> (lo:int -> hi:int -> count:int -> unit) -> unit
(** Non-empty buckets in increasing value order; [lo]/[hi] are the
    inclusive value bounds of each bucket. For exporters. *)
