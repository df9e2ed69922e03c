(** Proportional-share physical-page management via inverse lotteries
    (paper §6.2).

    When a page fault finds all frames in use, a {e victim client} is chosen
    by an inverse lottery: client [i] loses with probability proportional to
    [(1 - t_i / T) * (frames_i / frames_total)] — fewer tickets and larger
    residency both make revocation more likely. The victim then evicts its
    own least-recently-used page. Two conventional baselines are provided
    for comparison: global LRU (ticket-blind) and random victim.

    Victim lotteries go through a {!Lotto_draw.Draw} move-to-front list;
    clients hold either raw tickets ({!add_client}) or a share of a
    {!Lotto_tickets.Funding.currency} ({!add_funded_client}). Either way
    [t_i] is the value of the client's {!Funded} seat; the pool keeps
    only the inverse weight rule above, rebuilt for every client when
    any value moves. Unlike the bandwidth managers, a funded memory
    client's ticket stays active the whole time — it holds frames even
    when it is not faulting. *)

type policy =
  | Inverse_lottery  (** the paper's policy *)
  | Global_lru  (** evict the globally least-recently-used page *)
  | Global_random  (** evict a uniformly random resident page *)

type t
type client

val create :
  ?policy:policy ->
  ?funding:Lotto_tickets.Funding.system ->
  frames:int ->
  rng:Lotto_prng.Rng.t ->
  unit ->
  t
(** [policy] defaults to [Inverse_lottery]; [frames] is the physical pool
    size. [funding] is required for {!add_funded_client}. *)

val add_client : t -> name:string -> tickets:int -> working_set:int -> client
(** A client touches virtual pages [0 .. working_set - 1]. *)

val add_funded_client :
  t ->
  name:string ->
  ?amount:int ->
  working_set:int ->
  currency:Lotto_tickets.Funding.currency ->
  unit ->
  client
(** The client's [t_i] in the inverse-lottery weight is the value of a
    held ticket of [amount] (default 1000) denominated in [currency].
    Raises [Invalid_argument] when the pool was created without
    [~funding]. *)

val set_tickets : t -> client -> int -> unit
(** Raw-ticket clients only (ignored for funded clients —
    inflate their currency's backing tickets instead). *)

val client_name : client -> string

val value : t -> client -> float
(** The client's lottery value: its tickets or, when funded, its held
    ticket's value at current exchange rates. Funding mutations since
    the last draw are applied first. *)

val access : t -> client -> int -> [ `Hit | `Fault ]
(** Touch one virtual page, faulting it in (possibly evicting) if needed.
    Raises [Invalid_argument] if the page is outside the working set. *)

type pattern =
  | Uniform  (** every page in the working set equally likely *)
  | Zipf of float
      (** rank-skewed locality: page [r] with probability proportional to
          [1/(r+1)^s]; real programs look like [Zipf 0.8..1.2] *)

val simulate : ?pattern:pattern -> t -> steps:int -> unit
(** Drive the pool: clients access pages per [pattern] (default [Uniform]),
    round-robin, so every client applies equal pressure and the
    steady-state residency split reflects the replacement policy alone. *)

val resident : t -> client -> int
(** Frames currently held. *)

val faults : t -> client -> int
val accesses : t -> client -> int
val evictions_suffered : t -> client -> int
val frames_free : t -> int

val events : t -> Lotto_obs.Bus.t
(** Per-pool bus carrying one {!Lotto_obs.Event.Resource_draw} per victim
    lottery held (resource ["memory"], timestamped with the access
    clock). *)
