(** Lottery-scheduled network switch (paper §6: "ATM switches schedule
    virtual circuits to determine which buffered cell should next be
    forwarded. Lottery scheduling could be used to provide different levels
    of service to virtual circuits competing for congested channels.").

    A slotted output-queued switch: each virtual circuit targets one output
    port and holds tickets. Every slot, each circuit receives a new cell
    with its configured arrival probability (dropped if its buffer is
    full), and every output port transmits one cell chosen by a lottery
    among the circuits with buffered cells for that port. Uncongested ports
    simply forward; on congested ports, delivered bandwidth tracks ticket
    shares.

    Each port's lottery goes through a {!Lotto_draw.Draw} move-to-front
    list; circuits hold either raw tickets ({!add_circuit}) or a share of
    a {!Lotto_tickets.Funding.currency} ({!add_funded_circuit}). *)

type t
type circuit

val create :
  ?ports:int ->
  ?buffer_capacity:int ->
  ?funding:Lotto_tickets.Funding.system ->
  rng:Lotto_prng.Rng.t ->
  unit ->
  t
(** Defaults: 4 output ports, 64-cell per-circuit buffers. [funding] is
    required for {!add_funded_circuit}. *)

val add_circuit :
  t -> name:string -> output_port:int -> tickets:int -> rate:float -> circuit
(** [rate] is the per-slot cell arrival probability in [\[0, 1\]]. *)

val add_funded_circuit :
  t ->
  name:string ->
  output_port:int ->
  ?amount:int ->
  rate:float ->
  currency:Lotto_tickets.Funding.currency ->
  unit ->
  circuit
(** The circuit competes with a held ticket of [amount] (default 1000)
    denominated in [currency], suspended while its buffer is empty.
    Raises [Invalid_argument] when the switch was created without
    [~funding]. *)

val set_tickets : t -> circuit -> int -> unit
(** Raw-ticket circuits only (ignored weight-wise for funded circuits —
    inflate their currency's backing tickets instead). *)

val set_rate : t -> circuit -> float -> unit
val circuit_name : circuit -> string

val value : t -> circuit -> float
(** The circuit's lottery value: its tickets or, when funded, its held
    ticket's value at current exchange rates (0 while the ticket is
    suspended). Funding mutations since the last draw are applied first. *)

val step : t -> slots:int -> unit
(** Advance the switch: arrivals, then one transmission per port per
    slot. *)

val now : t -> int
(** Slots elapsed. *)

val delivered : t -> circuit -> int
val dropped : t -> circuit -> int
val backlog : t -> circuit -> int
val mean_delay : t -> circuit -> float
(** Mean slots a delivered cell spent buffered; [nan] before the first
    delivery. *)

val port_utilization : t -> int -> float
(** Fraction of slots in which the port transmitted. *)

val events : t -> Lotto_obs.Bus.t
(** Per-switch bus carrying one {!Lotto_obs.Event.Resource_draw} per port
    lottery held (resource ["switch:p<i>"], timestamped with the slot). *)
