(** The lottery scheduler (paper Sections 2–4).

    Each simulated thread gets its own {e thread currency}; the thread
    competes with a single ticket issued in that currency, and all funding
    reaches it by backing that currency with tickets denominated in user
    currencies (or in base). This realizes the paper's kernel objects
    (Figure 2/3) directly:

    - {e ticket transfers} (§3.1, §4.6): when the kernel reports that a
      blocked thread should fund another, a ticket denominated in the
      blocked thread's currency is issued and funds the target's currency,
      while the blocked thread's own competing ticket is inactive — so the
      full value moves, transitively through chains of blocked threads;
    - {e ticket inflation} (§3.2): {!set_ticket_amount} adjusts any funding
      ticket, contained within its currency;
    - {e compensation tickets} (§3.4, §4.5): the kernel maintains a
      [quantum/used] factor on threads that block early, which this
      scheduler multiplies into their draw weight;
    - {e lottery-scheduled mutexes} (§6.1): [pick_waiter] draws among a
      mutex's waiters weighted by their currency values.

    Draws use the paper's move-to-front list (O(n)) or the partial-sum
    tree (O(log n)); both produce identically distributed winners. The
    draw is split into shards, one per virtual CPU: the paper's §4.2
    distributed lottery, whose one-shard case is the plain lottery. *)

type t
type mode = List_mode | Tree_mode

val create :
  ?mode:mode ->
  ?use_compensation:bool ->
  ?shards:int ->
  rng:Lotto_prng.Rng.t ->
  unit ->
  t
(** [mode] defaults to [List_mode] (the paper's prototype). Completely
    unfunded threads run round-robin when no funded thread is runnable,
    instead of deadlocking the simulation. [use_compensation] (default
    [true]) applies the kernel's compensation-ticket factor to draw
    weights; disabling it reproduces the paper's §4.5 counterexample where
    an I/O-bound thread receives far less than its entitled share.

    [shards] (default [1]; [0] also means one) is the number of draw
    structures, shard [i] serving virtual CPU [i]; the scheduler's
    {!Lotto_sim.Types.sched.max_cpus} is that number, so a kernel with
    more CPUs refuses it. With several shards, threads are placed on the
    least-loaded shard (ticket-weighted), rebalanced when a shard's ticket
    mass deviates from the [1/shards] ideal by more than a quarter of the
    ideal, and stolen from a ticket-weighted random victim when a CPU's own
    shard has nothing runnable; a decision's winner leaves its draw for
    its slice, so no other CPU can pick it. One shard keeps no per-shard
    mass, never migrates, and leaves the winner in its draw. Raises
    [Invalid_argument] when [shards < 0]. *)

val sched : t -> Lotto_sim.Types.sched

(** {1 Currencies and funding}

    Draw weights track the funding graph through a
    {!Lotto_tickets.Funding.watch} on every thread currency, tagged with
    the thread's slot: a mutation that stales one queues the slot, so
    mutations made directly on the underlying {!funding} system are picked
    up too. *)

val funding : t -> Lotto_tickets.Funding.system
val base_currency : t -> Lotto_tickets.Funding.currency

val make_currency : t -> string -> Lotto_tickets.Funding.currency
(** A named user currency (raises [Funding.Duplicate_name] on clash). *)

val fund_currency :
  t ->
  target:Lotto_tickets.Funding.currency ->
  amount:int ->
  from:Lotto_tickets.Funding.currency ->
  Lotto_tickets.Funding.ticket
(** Issue a ticket of [amount] denominated in [from] and back [target]
    with it — e.g. [fund_currency t ~target:alice ~amount:200 ~from:base]
    is the paper's "alice = 200.base". *)

val fund_thread :
  t ->
  Lotto_sim.Types.thread ->
  amount:int ->
  from:Lotto_tickets.Funding.currency ->
  Lotto_tickets.Funding.ticket
(** Back a thread's currency, e.g. "thread1 = 100.alice". *)

val set_ticket_amount : t -> Lotto_tickets.Funding.ticket -> int -> unit
(** Ticket inflation / deflation. *)

val destroy_ticket : t -> Lotto_tickets.Funding.ticket -> unit

val thread_value : t -> Lotto_sim.Types.thread -> float
(** Current draw weight in base units (funding value times any outstanding
    compensation factor). *)

(** {1 Introspection} *)

val thread_entitlement : t -> Lotto_sim.Types.thread -> float
(** The base-unit value of the thread's backing tickets at current
    exchange rates, whether or not the thread is currently runnable — the
    share it is {e entitled} to whenever it competes. Unlike
    {!thread_value} this does not drop to zero while the thread blocks,
    making it the right yardstick for observed-vs-entitled fairness
    gauges (e.g. {!Lotto_obs.Metrics.fairness}). *)

val set_profiler : t -> Lotto_obs.Profile.t option -> unit
(** Install (or clear) a scheduler phase profiler: each [select] records
    its {e valuation} phase (flushing dirtied weights into the draw) and
    its {e draw} phase (picking the winner) host-clock cost. Pair with
    {!Lotto_sim.Kernel.set_profiler} on the same profiler so all four
    phases land in one report. With no profiler the cost is one branch per
    select. *)

val check_funding_coherence : t -> Lotto_sim.Types.thread list -> string list
(** Audit the scheduler's funding view against the kernel's live
    [threads]. The scheduler holds the only record of a ticket transfer,
    so a thread that holds transfers must be [Blocked] (the kernel revokes
    on every wake) and each transfer must target one of [threads] (a
    target's death destroys it). Dead threads must hold no scheduler
    state, and the underlying funding graph
    must pass {!Lotto_tickets.Funding.check_invariants}. Returns one
    string per violation; empty means coherent. It also audits the flat
    per-thread tables the decision path reads: every thread the quiescent
    [account] check would trust (in its draw, no refresh pending) must be
    live with its handle in its draw, have a valid currency cache, and
    hold cached weight inputs that are its currency's value and reproduce
    the draw's weight bit for bit; no fallback ring may hold a dead
    thread. Runs read-only between slices; composed with
    {!Lotto_sim.Kernel.check_invariants} by the {!Lotto_chaos}
    auditor. *)

val draw_weight : t -> Lotto_sim.Types.thread -> float option
(** The weight the thread's draw holds for it, [None] while it is out of
    its draw (blocked, dispatched with several shards, or unknown). *)

val draws : t -> int
(** Lotteries held so far. *)

val full_refreshes : t -> int
(** Times every runnable thread's weight was recomputed at once. Always 0:
    the watches on thread currencies ({!Lotto_tickets.Funding.watch}) let
    the scheduler revalue only the threads a mutation actually touched,
    and no full recomputation path remains. Kept for callers that report
    it. *)

val scoped_weight_updates : t -> int
(** Cumulative per-thread weight writes on the incremental path: weights
    computed when a thread (re)enters the draw, plus flushes of queued
    stale slots for threads already in it. A block/wake of one
    base-funded thread costs exactly one of these — the insert-time write
    at wake — independent of how many threads exist. *)

val list_comparisons : t -> int option
(** Cumulative list-entries examined over every shard ([None] in tree
    mode): the paper's search-length metric for the move-to-front
    heuristic. *)

val runnable_count : t -> int

(** {1 Shards}

    With one shard, {!migrations} and {!steals} stay [0], and
    {!shard_ticket_mass} and {!force_migrate} raise: one shard keeps no
    per-shard mass and has nowhere to migrate to. *)

val shards : t -> int
(** Number of shards (at least 1). *)

val shard_of : t -> Lotto_sim.Types.thread -> int
(** The shard the thread is currently placed on; [-1] if the scheduler
    has no state for it. A dispatched thread keeps its shard id for the
    duration of its slice. *)

val shard_ticket_mass : t -> int -> float
(** Ticket mass currently assigned to a shard: its draw's total plus the
    weights of the threads dispatched from it (blocked threads carry no
    mass). Raises [Invalid_argument]
    on a bad index or a one-shard scheduler. *)

val migrations : t -> int
(** Threads moved between shards so far (rebalancing, stealing and
    {!force_migrate} all count). *)

val steals : t -> int
(** Work-steals: migrations triggered by a CPU whose own shard had
    nothing runnable. *)

val set_migration_enabled : t -> bool -> unit
(** Turn rebalancing and stealing off (or back on, the default). With
    migration disabled, placement is final — used by the equivalence
    tests that pin every thread to one shard. *)

val set_placement_hook : t -> (Lotto_sim.Types.thread -> int) option -> unit
(** Override initial placement: called once per thread when it first
    becomes runnable, in place of the default least-loaded choice. A
    return out of [0..shards-1] raises [Invalid_argument] out of the
    kernel call that made the thread runnable, so a wrong pin in an
    equivalence test fails loudly instead of landing somewhere else. *)

val force_migrate : t -> Lotto_sim.Types.thread -> dst:int -> unit
(** Move a thread to shard [dst] immediately (no-op when already there or
    when the scheduler holds no state for it). O(1) detach, O(log n)
    re-insert, zero allocation in the steady state — the hook the
    [smp/migration] budget row measures migration cost with. Raises [Invalid_argument] on a bad [dst] or
    a one-shard scheduler. *)

val check_sharding : t -> string list
(** Audit the shard bookkeeping: each runnable thread's draw handle is
    live in exactly the shard it claims; both halves of each shard's mass
    match what they sum — the draw's total the weights in the draw, and
    the dispatched mass the last weights of the threads dispatched from
    the shard (relative epsilon: both are maintained incrementally); and
    the flags are coherent (a thread counted as dispatched is out of its
    draw, placed, and on a scheduler with several shards). Returns one
    string per violation; empty means healthy. Read-only between slices;
    composed with the kernel and funding audits by the {!Lotto_chaos}
    auditor. *)
