(** SplitMix64 generator (Steele, Lea & Flood): a fast modern alternative
    to Park–Miller, and the scrambler behind {!Rng.split}. *)

type t

val create : seed:int -> t
val next_int64 : t -> int64
(** Next 64-bit output. *)

val copy : t -> t
