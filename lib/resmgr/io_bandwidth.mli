(** Lottery-managed I/O / network bandwidth (paper §6, "Managing Diverse
    Resources": disk bandwidth, ATM virtual circuits).

    A device serves fixed-size transfer slots. Each slot, a lottery is held
    among clients with queued requests, weighted by their tickets — so each
    {e backlogged} client receives bandwidth proportional to its share of
    the backlogged tickets, and idle clients' shares redistribute
    automatically (the "lightly contended resource" property of §2.1).

    Draws go through a {!Lotto_draw.Draw} move-to-front list (the paper's
    prototype structure), and clients are funded either with raw tickets
    ({!add_client}) or from a {!Lotto_tickets.Funding.currency}
    ({!add_funded_client}) so one currency can proportionally fund CPU
    {e and} bandwidth. *)

type t
type client

val create :
  ?funding:Lotto_tickets.Funding.system ->
  rng:Lotto_prng.Rng.t ->
  unit ->
  t
(** [funding] is required for {!add_funded_client} and is typically the
    scheduler's {!Lottery_sched.funding} system. *)

val add_client : t -> name:string -> tickets:int -> client

val add_funded_client :
  t ->
  name:string ->
  ?amount:int ->
  currency:Lotto_tickets.Funding.currency ->
  unit ->
  client
(** The client competes with a held ticket of [amount] (default 1000)
    denominated in [currency]: its bandwidth share follows the currency's
    value, divided among everything the currency funds, and the ticket is
    suspended while the client has nothing queued. Raises
    [Invalid_argument] when the manager was created without [~funding]. *)

val set_tickets : t -> client -> int -> unit
(** Raw-ticket clients only (ignored weight-wise for funded clients —
    inflate their currency's backing tickets instead). *)

val client_name : client -> string

val value : t -> client -> float
(** The client's lottery value: its tickets or, when funded, its held
    ticket's value at current exchange rates (0 while the ticket is
    suspended). Funding mutations since the last draw are applied first. *)

val submit : t -> client -> requests:int -> unit
(** Enqueue transfer requests (one slot each). *)

val pending : t -> client -> int

val cancel_pending : t -> client -> unit
(** Drop all of the client's queued requests (the stream went idle). *)

val serve_slot : t -> client option
(** Serve one slot: the lottery winner's oldest request completes. [None]
    when no requests are queued anywhere. *)

val serve : t -> slots:int -> unit
(** Serve up to [slots] slots (stops early if the device goes idle). *)

val served : t -> client -> int
val total_served : t -> int

val events : t -> Lotto_obs.Bus.t
(** Per-manager bus carrying one {!Lotto_obs.Event.Resource_draw} per
    lottery held (timestamped with slots served so far). *)
