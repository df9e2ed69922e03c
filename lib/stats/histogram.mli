(** Fixed-width bucket histograms, used for waiting-time distributions
    (paper Figure 11) and for distribution checks in tests. *)

type t

val create : lo:float -> hi:float -> buckets:int -> t
(** [create ~lo ~hi ~buckets] covers the half-open range [\[lo, hi)] with
    [buckets] equal-width buckets. Samples outside the range are counted in
    underflow/overflow counters. Raises [Invalid_argument] if [hi <= lo] or
    [buckets <= 0]. *)

val add : t -> float -> unit
val total : t -> int
(** Total samples added, including under/overflow. *)

val count : t -> int -> int
(** [count t i] is the number of samples in bucket [i]. *)

val underflow : t -> int
val overflow : t -> int

val bucket_mid : t -> int -> float
(** Midpoint value of bucket [i]. *)

val bucket_range : t -> int -> float * float

val fraction : t -> int -> float
(** Share of all samples landing in bucket [i]; [0.] when empty. *)

val mode : t -> int
(** Index of the fullest bucket (ties resolve to the lowest index). *)

val render : ?width:int -> t -> string
(** Render an ASCII bar chart, one row per bucket; [width] caps the bar
    length (default 50 characters). *)
