(** The seat core shared by the resource managers ({!Disk},
    {!Io_bandwidth}, {!Switch}, {!Inverse_memory}): how a client's tickets
    become its share (paper §6: tickets and currencies are
    resource-independent).

    A manager's client owns one {!seat}: its identity on the bus and the
    [value] its draw weight is built from. A raw seat's value is its
    ticket count. A funded seat holds a ticket issued in a
    {!Lotto_tickets.Funding.currency}, so the currency's value is divided
    among everything it funds (CPU threads, disk clients, circuits, ...)
    and inflating a backing ticket shifts every resource at once. Managers
    suspend the held ticket while the client has no queued work
    ({!set_active}), so an idle stream's rights re-concentrate into the
    currency's other consumers.

    The seat core knows nothing of weights: each manager keeps its draws,
    its contender counts, its batching and its weight rule, and reacts to
    {!refresh} through its own callback. *)

type seat = private {
  id : int;  (** manager-local, in creation order; the bus actor's tid *)
  name : string;
  mutable value : float;
      (** raw seats: their ticket count; funded seats: the held ticket's
          value at the last {!refresh} (0 while suspended) *)
  held : Lotto_tickets.Funding.ticket option;
}

type 'c table
(** One manager's seats, with clients of type ['c]: the id counter and
    the index from funding currency to the funded seats it backs. *)

val table : Lotto_tickets.Funding.system option -> 'c table
(** [None] allows raw seats only. With a funding system, the table's
    {!Lotto_tickets.Funding.queue} watches each currency that funds a seat
    of this table, tagged with the seats' group, so a flip of one queues
    the group until the next refresh. No other currency is watched, so an
    idle manager does not grow while unrelated currencies churn. *)

val raw : 'c table -> who:string -> name:string -> tickets:int -> seat
(** A seat valued at [tickets]. Raises [Invalid_argument] (prefixed with
    [who]) when [tickets < 0]. *)

val funded :
  'c table ->
  who:string ->
  name:string ->
  amount:int ->
  currency:Lotto_tickets.Funding.currency ->
  active:bool ->
  (seat -> 'c) ->
  'c
(** [funded tb ~who ~name ~amount ~currency ~active make] issues and holds
    a ticket of [amount] in [currency] (suspended unless [active]), values
    the seat at that ticket, builds the client with [make] and indexes it
    under [currency] for {!refresh}. Raises [Invalid_argument] (prefixed
    with [who]) when the table has no funding system or [amount <= 0];
    validate the manager's own arguments first, so a rejected call issues
    no ticket. *)

val set_tickets : who:string -> seat -> int -> bool
(** A raw seat takes the new ticket count as its value and the call
    returns [true] (the manager should re-weigh the client); a funded seat
    keeps drawing on its held ticket and the call returns [false]. Raises
    [Invalid_argument] (prefixed with [who]) when negative. *)

val set_active : 'c table -> seat -> bool -> unit
(** Resume or suspend a funded seat's held ticket (idempotent); a no-op
    for raw seats. The value follows at the next {!refresh}. *)

val refresh : 'c table -> 'm -> ('m -> 'c -> bool -> unit) -> unit
(** Revalue exactly the funded seats whose currencies moved since the last
    refresh: each one's [value] is rewritten, then [f m client moved] runs,
    [moved] saying whether the value changed. Groups are visited in
    {!Lotto_tickets.Funding.queue} order — mutations in order, the newest
    flip first within one, a group at the position it was first queued
    at — and, within a group, seats newest first. [f] is typically a
    top-level function of the manager, so no closure is built per
    refresh. *)

val pending : 'c table -> int
(** Currencies queued since the last refresh. *)

val publish :
  Lotto_obs.Bus.t ->
  time:int ->
  resource:string ->
  contenders:int ->
  total:float ->
  seat ->
  unit
(** Emit the {!Lotto_obs.Event.Resource_draw} for a lottery the seat won.
    Callers check {!Lotto_obs.Bus.active} first, so the arguments cost
    nothing while no one listens. *)
