(** Lottery-scheduled disk bandwidth (paper §6 and footnote 7: "a
    disk-based database could use lotteries to schedule disk bandwidth").

    A single disk arm serves requests addressed to cylinders. Service time
    is a seek proportional to the distance travelled plus a fixed
    rotation+transfer cost. Three head-scheduling policies:

    - [Fcfs]: first come, first served — fair in arrival order, terrible
      seeks;
    - [Sstf]: shortest seek time first — maximum throughput, starves
      distant requests and ignores resource rights entirely;
    - [Lottery]: pick the {e client} by ticket lottery, then serve that
      client's request nearest the head — proportional-share bandwidth with
      locally good seeks, the paper's proposal.

    Lottery draws go through a {!Lotto_draw.Draw} move-to-front list over
    clients with queued requests; clients hold either raw tickets
    ({!add_client}) or a share of a {!Lotto_tickets.Funding.currency}
    ({!add_funded_client}), so one currency can proportionally fund CPU
    {e and} disk. Either way a client's value comes from its {!Funded}
    seat; the disk keeps only its weight rule (the value while requests
    are queued, else 0) and its batching.

    Time is virtual (integer ticks); the module is deterministic given its
    RNG. *)

type policy = Fcfs | Sstf | Lottery

type t
type client

val create :
  ?policy:policy ->
  ?cylinders:int ->
  ?seek_cost:int ->
  ?transfer_cost:int ->
  ?funding:Lotto_tickets.Funding.system ->
  rng:Lotto_prng.Rng.t ->
  unit ->
  t
(** Defaults: [Lottery] policy, 1000 cylinders, seek cost 10 ticks per
    cylinder, fixed per-request cost 2000 ticks.
    [funding] is required for {!add_funded_client} and is typically the
    scheduler's {!Lottery_sched.funding} system.

    The lottery policy refills its winner queue through
    {!Lotto_draw.Draw.draw_k}: up to 64 lottery winners are pre-drawn in
    one batch and consumed in draw order, each still serving its own
    nearest request (the elevator move). A generation counter guards the
    batch: any positive weight write (a new backlog, ticket or funding
    movement) discards the unserved tail, while a client whose weight
    dropped to zero (its queue drained) is merely skipped at consume time
    — for independent with-replacement draws that conditioning is exactly
    the redraw distribution, so proportional share is preserved slot by
    slot. The discarded draws consume randomness, so the RNG stream
    differs from slot-at-a-time service; the per-slot winner distribution
    is identical. The disk experiments' outputs are pinned to the RNG
    stream this batching draws. *)

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
    suspended while the client has no queued requests. Raises
    [Invalid_argument] when the manager was created without [~funding]. *)

val set_tickets : t -> client -> int -> unit
(** Raw-ticket clients only (ignored for funded clients —
    inflate their currency's backing tickets instead). *)

val client_name : client -> string

val value : t -> client -> float
(** The client's lottery value: its tickets or, when funded, its held
    ticket's value at current exchange rates (0 while the ticket is
    suspended). Funding mutations since the last draw are applied first. *)

val submit : t -> client -> cylinder:int -> unit
(** Queue one request. Raises [Invalid_argument] for cylinders outside
    [\[0, cylinders)]. *)

val pending : t -> client -> int

val serve_one : t -> client option
(** Serve the next request per the policy; advances the virtual clock by
    the seek + transfer time. [None] if no requests are queued. *)

val now : t -> int
(** Virtual disk time consumed so far. *)

val served : t -> client -> int
val total_served : t -> int
val mean_latency : t -> client -> float
(** Mean ticks between submission and completion; [nan] before the first
    completion. *)

val total_seek_distance : t -> int
(** Cylinders travelled — the throughput-versus-fairness cost of the
    policy. *)

val head_position : t -> int

val events : t -> Lotto_obs.Bus.t
(** Per-manager bus carrying one {!Lotto_obs.Event.Resource_draw} per
    lottery held (timestamped with the virtual clock). *)
