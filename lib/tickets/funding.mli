(** Tickets and currencies: the paper's resource-rights model (Sections 3–4).

    A {e system} owns one {e base} currency and any number of user currencies.
    Each currency is {e backed} (funded) by tickets denominated in other
    currencies; each currency {e issues} tickets denominated in itself.
    Currency relationships must form an acyclic graph rooted at the base.

    A ticket is {e active} while its holder competes in lotteries, or while
    the currency it backs has a nonzero active amount. Activations and
    deactivations propagate through backing tickets exactly as described in
    Section 4.4 of the paper: when a currency's active amount crosses zero,
    the change propagates to each of its backing tickets.

    Valuation (Section 4.4): the value of a ticket denominated in the base
    currency is its face amount; the value of a currency is the sum of the
    values of its active backing tickets; the value of a non-base ticket is
    the currency's value times the ticket's share of the currency's active
    amount.

    A {!ticket} is a handle: its id, its denomination and its arena slot.
    Its amount, activity, holder flag and the currency it backs live in
    the system's tables indexed by slot, as do a currency's active amount,
    cache flag and backing and live heads, so the accessors that read them
    take the system, and the block/wake path (invalidation, the activation
    cascade, revaluation) walks those tables without reading a ticket
    record per sibling. *)

type system
type currency
type ticket

exception Cycle of string
(** Raised by {!fund} when the requested edge would make the currency graph
    cyclic. *)

exception Duplicate_name of string
exception In_use of string
(** Raised by {!remove_currency} when tickets still reference the currency. *)

(** {1 Systems and currencies} *)

val create_system : unit -> system

val base : system -> currency
(** The conserved base currency ("base" in the paper's figures). *)

(** {2 Watches}

    Consumers that cache derived state (draw weights in the scheduler and
    the resource managers) watch the currencies they draw on: a consumer
    owns one {!queue} and watches each currency with an int tag naming its
    own state (the scheduler's thread slot, a manager's seat group). When
    a mutation flips a watched currency's cached valuation from valid to
    stale, which it does at most once per currency, the tag is pushed onto
    the queue there and then.

    Completeness: between two reads of a currency's value, every change to
    it flips it stale, so a consumer that re-reads exactly the currencies
    whose tags it drains before each draw never uses a stale weight. An
    inactive currency (value 0) flips only at its own activation.

    Drain order: within a mutation, the newest flip first (the dependents
    a cascade staled before the currency that staled them); across
    mutations, in mutation order, each tag at the position it was first
    queued at since the last {!clear}. *)

type queue

val queue : system -> queue

val watch : currency -> queue -> tag:int -> unit
(** Later flips of the live currency push [tag] onto the queue, unless it
    is queued already. A currency may carry several queues' watches;
    removing it drops them. Raises [Invalid_argument] on a dead currency
    or a negative tag. *)

val tag : currency -> queue -> int
(** The tag the queue watches the currency with; [-1] for none. *)

val is_queued : queue -> int -> bool

val cancel : queue -> int -> unit
(** Unqueue the tag, leaving [-1] at its position: for a consumer that
    recycles the tag before the next drain. O(queued). *)

val settle : queue -> int
(** Put the tags in drain order and return how many there are; read them
    with {!nth}, then {!clear}. *)

val nth : queue -> int -> int
val queued : queue -> int
val clear : queue -> unit

val make_currency : system -> name:string -> currency
(** Raises {!Duplicate_name} if [name] is taken ("base" is always taken). *)

val find_currency : system -> string -> currency option
val currency_name : currency -> string

val currency_id : currency -> int
(** Unique forever — ids are never recycled. *)

val currency_slot : currency -> int
(** The currency's dense arena slot; [-1] once removed and the slot
    recycled. Consumers keeping per-currency state in arrays index them by
    this (guarding against recycling with a physical-equality check on the
    stored currency). *)

val currency_generation : system -> currency -> int
(** Generation of the currency's slot ([-1] once removed). A (slot,
    generation) pair captured while the currency is live never matches any
    later occupant of the recycled slot. *)

val is_base : currency -> bool
val currencies : system -> currency list
(** All live currencies including base, in creation order. *)

val live_currency_count : system -> int

val remove_currency : system -> currency -> unit
(** Raises {!In_use} unless the currency has no issued and no backing
    tickets; the base currency can never be removed. *)

val active_amount : system -> currency -> int
(** Sum of the amounts of this currency's currently active issued tickets;
    [0] once removed. *)

val issued_tickets : system -> currency -> ticket list
val backing_tickets : system -> currency -> ticket list
(** Fresh lists, most recently attached first (the historical list order);
    the edges themselves live in the system's adjacency arrays, so these
    are O(degree) snapshots safe to mutate under. *)

(** {1 Tickets} *)

val max_amount : int
(** The largest face amount a ticket may carry: 2^32 (4,294,967,296),
    above [Monte_carlo.max_ticket] (10^9). A currency's active
    amount is an [int] sum of its active tickets' amounts, and valuation
    turns it into a [float]; both stay exact while the sum is below 2^53,
    which the bound guarantees for up to 2^21 (2,097,152) active tickets
    per currency at the bound, and for proportionally more at smaller
    amounts. (Without a bound, two active tickets of 2^61 overflowed a
    currency's sum to a negative amount.) *)

val issue : system -> currency:currency -> amount:int -> ticket
(** Create an inactive, unattached ticket denominated in [currency].
    Raises [Invalid_argument] on a negative amount or one above
    {!max_amount}. *)

val amount : system -> ticket -> int
(** The face amount; a destroyed ticket keeps the one it was destroyed
    with. *)

val denomination : ticket -> currency

val ticket_id : ticket -> int
(** Unique forever — ids are never recycled. *)

val ticket_slot : ticket -> int
(** The ticket's dense arena slot; [-1] once destroyed and the slot
    recycled. *)

val ticket_generation : system -> ticket -> int
(** Generation of the ticket's slot ([-1] once destroyed). *)

val is_active : system -> ticket -> bool

val set_amount : system -> ticket -> int -> unit
(** Ticket inflation / deflation (Section 3.2): change the face amount,
    updating active sums and propagating zero crossings. Raises
    [Invalid_argument] on a negative amount or one above {!max_amount},
    leaving the ticket unchanged. *)

val destroy_ticket : system -> ticket -> unit
(** Deactivates and detaches the ticket, then removes it from its
    denomination's issued list and releases its slot. The ticket must not
    be reused; reads of it keep answering: its amount and denomination,
    inactive, neither held nor backing, slot and generation [-1]. *)

(** {1 Attachment and activity} *)

val fund : system -> ticket:ticket -> currency:currency -> unit
(** Attach [ticket] as a backing ticket of [currency]. The ticket must be
    unattached. Activates the ticket if [currency] already has active
    issued tickets. Raises {!Cycle} when the edge would create a cycle and
    [Invalid_argument] when attempting to fund the ticket's own
    denomination. *)

val unfund : system -> ticket -> unit
(** Detach a backing ticket (deactivating it first). No-op semantics apply
    only to attached tickets; raises [Invalid_argument] otherwise. *)

val hold : system -> ticket -> unit
(** Mark the ticket as held by a competing client and activate it. The
    ticket must be unattached or already held. *)

val suspend : system -> ticket -> unit
(** Deactivate a held ticket (client left the run queue). *)

val resume : system -> ticket -> unit
(** Reactivate a held ticket (client rejoined the run queue). *)

val release : system -> ticket -> unit
(** Deactivate and detach a held ticket. *)

val funds : system -> ticket -> currency option
(** The currency this ticket currently backs, if any. *)

val is_held : system -> ticket -> bool

(** {1 Valuation}

    Valuations are memoized incrementally in flat per-currency caches: each
    mutation invalidates only the currencies it can affect (propagating
    along backing edges toward the funded leaves), and reads lazily
    revalidate just the stale region. A quiescent graph is valued once;
    steady-state reads are O(1). Cached results are bit-for-bit identical
    to a from-scratch walk. *)

val ticket_value : system -> ticket -> float
(** Current value in base units (cached, O(1) on a quiescent graph); [0.]
    for inactive tickets. *)

val currency_value : system -> currency -> float
(** Sum of the values of the currency's active backing tickets (for the
    base currency: its active amount). *)

val unit_value : system -> currency -> float
(** Base units per unit of [currency]; [1.] for base, [0.] for a currency
    with zero active amount. *)

val value_table : system -> int -> float array
(** [value_table sys j] revalidates the live currency at slot [j]
    ({!currency_slot}) and returns the system's flat value cache, where its
    value sits at index [j]. The allocation-free form of {!currency_value}
    for per-decision consumers: a float read out of an array stays
    unboxed, while one returned by a call the compiler does not inline is
    boxed. The table is replaced when the currency arena grows, so fetch
    it for each read rather than keeping it. *)

val unit_table : system -> currency -> float array
(** [unit_table sys c] revalidates the live currency [c] and returns the
    system's flat unit-value cache, where [c]'s unit value ({!unit_value})
    sits at index {!currency_slot}[ c]; the base currency's entry is always
    [1.]. The allocation-free form of {!unit_value}, replaced when the
    arena grows like {!value_table}. *)

val values : system -> float array
(** The flat value cache {!value_table} returns, read without revalidating
    anything: an entry is current only while its currency's cache is valid
    ({!cache_valid}). For a consumer that knows, by an invariant of its
    own, that the currency it reads has not gone stale since it last
    validated it. Replaced when the arena grows, like {!value_table}. *)

val cache_valid : system -> currency -> bool
(** Whether the currency's cached value is current ([false] once it is
    removed). A currency goes stale
    only in a mutation, and its flip to stale pushes the tags of the
    queues that {!watch} it; any read of its value makes it valid
    again. *)

(** {1 Introspection} *)

val edges_walked : system -> int
(** Ticket edges visited by invalidation walks since the system was
    created. Invalidation follows only each currency's active tickets that
    back a currency, so a block or wake costs O(live dependents) however
    many idle tickets the currency has issued. A read-only counter for
    tests and the overhead gate. *)

val hook_calls : system -> int
(** Tags handed to queues since the system was created: one per watch of
    each currency flipped stale, queued already or not. A counter for
    tests and the overhead gate. *)

val check_invariants : system -> unit
(** Validates internal consistency (active sums, attachment symmetry,
    activation propagation, acyclicity, each currency's live list of
    active backing tickets against its issued list, and agreement of the
    incremental valuation caches with a from-scratch valuation), the slot
    tables against the edge lists and the records (a ticket's backing
    target against that currency's backing list, its denomination against
    its record, every live ticket in its denomination's issued list), and
    that every released ticket and currency slot was reset;
    raises [Failure] with a description on violation. Used by tests and
    enabled in debug builds. *)

val pp_currency : system -> Format.formatter -> currency -> unit
val pp_ticket : system -> Format.formatter -> ticket -> unit
val pp_system : Format.formatter -> system -> unit

val to_dot : system -> string
(** Graphviz rendering of the funding graph, in the style of the paper's
    Figure 3: box nodes for currencies (name and active amount), ellipses
    for held (competing) tickets, edges labelled with ticket amounts and
    dashed when inactive. *)
