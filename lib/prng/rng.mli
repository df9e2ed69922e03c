(** Unified deterministic random-number interface.

    All randomness in the library flows through a [t], created from an
    explicit seed, so every simulation and experiment is reproducible.
    The default algorithm is {!Park_miller}, matching the paper's prototype;
    SplitMix64 is available for statistical testing. *)

type t

type algo =
  | Park_miller  (** the paper's minimal-standard LCG (Appendix A) *)
  | Splitmix64  (** a fast 64-bit generator, for statistical testing *)

val create : ?algo:algo -> seed:int -> unit -> t
(** Default [algo] is [Park_miller]. *)

val algo : t -> algo
val name : t -> string
val copy : t -> t
(** Independent clone with identical current state. *)

val raw : t -> int
(** One raw draw, uniform on [\[0, raw_range t)]. *)

val raw_range : t -> int

val int_below : t -> int -> int
(** [int_below t n] is uniform on [\[0, n)], unbiased (rejection sampling).
    Raises [Invalid_argument] if [n <= 0] or [n] exceeds the generator's
    composable range. Allocates nothing with the default Park–Miller
    generator (SplitMix64 boxes an [Int64] per raw draw). *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform on [\[lo, hi\]] inclusive. *)

val bits53 : t -> int
(** Uniform on [\[0, 2^53)]: [int_below t (1 lsl 53)]. *)

val float_unit : t -> float
(** Uniform on [\[0, 1)] with 53 bits of precision where the generator
    allows; [float_of_int (bits53 t) /. 2^53]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed nonnegative float. *)

val exponential_at : t -> mean:float -> float array -> int -> unit
(** [exponential_at t ~mean dst i] stores the draw [exponential t ~mean]
    would make in [dst.(i)], so the deviate is never boxed to cross the
    call. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed float (Box–Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a nonempty array. *)

val split : t -> t
(** Derive an independently seeded generator of the same algorithm from the
    current stream (used to give each subsystem its own stream). *)
