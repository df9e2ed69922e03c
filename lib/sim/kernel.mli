(** The discrete-event kernel: our stand-in for the Mach 3.0 scheduler core.

    The kernel multiplexes simulated threads over one or more virtual CPUs
    in quantum-sized slices, delegating every policy decision to an
    abstract {!Types.sched}. Threads are effect-handler coroutines; all
    requests they make (compute, sleep, RPC, locks) cost virtual time only,
    and the whole simulation is deterministic given the scheduler's RNG
    seed.

    With [cpus > 1] the loop proceeds in rounds anchored at the minimum
    per-CPU clock: every CPU at the round floor selects first (CPU-id
    order, so replays are deterministic), then the selected slices run —
    one round's slices are virtually concurrent, and because multi-CPU
    schedulers dequeue on dispatch ({!Types.sched.max_cpus}) no thread is
    ever picked by two CPUs of the same round. A single-CPU kernel is
    byte-identical to the historical loop.

    Semantics mirroring the paper's platform:
    - one lottery/selection per quantum (default 100 ms, §4);
    - a thread that blocks after using a fraction of its quantum gets its
      {!Types.thread.compensate} factor set to [quantum/used] until it next
      starts a fresh quantum (§4.5) — proportional-share schedulers apply it;
    - a blocked RPC client funds the server processing its request, a
      blocked mutex waiter funds the lock owner, via {!Types.sched.donate}
      (§4.6, §6.1);
    - timer wakeups are processed at slice boundaries, as on real
      quantum-scheduled systems. *)

type t

val create : ?quantum:Time.t -> ?cpus:int -> sched:Types.sched -> unit -> t
(** [quantum] defaults to 100 ms ([Time.ms 100]), the Mach quantum the
    paper's prototype used. [cpus] (default [1]) is the number of virtual
    CPUs; raises [Invalid_argument] when [cpus] exceeds the scheduler's
    {!Types.sched.max_cpus}. *)

val now : t -> Time.t
(** The global virtual clock: between runs, the time the last {!run}
    ended at; during a slice, the executing CPU's clock. *)

val quantum : t -> Time.t

val cpus : t -> int

val cpu_clock : t -> int -> Time.t
(** [cpu_clock k c] is virtual CPU [c]'s own clock (every CPU ends a run
    at the same time unless it deadlocked mid-round). *)

val spawn : t -> name:string -> (unit -> unit) -> Types.thread
(** Create a runnable thread. The body runs inside the simulation and may
    call any {!Api} function. Exceptions escaping the body turn the thread
    into a zombie recorded in {!failures} ({!Types.Killed} is only
    counted, in {!kill_count}). *)

val create_port :
  ?capacity:int -> ?shed:Types.shed_policy -> t -> name:string -> Types.port
(** [capacity] (default unbounded; must be [>= 1]) bounds how many sent
    messages may queue unreceived; a plain {!Api.rpc} that would push the
    queue past it is shed per [shed] (default [Reject_new]): under
    [Reject_new] the arriving client gets {!Types.Rejected} directly, under
    [Drop_oldest] the oldest queued single-shot request is evicted (its
    blocked sender gets [Rejected], kill-style) and the new one admitted.
    Scatter sends ({!Api.rpc_many}) bypass capacity — both as arrivals and
    as eviction victims. Every shed emits {!Lotto_obs.Event.Rpc_shed} and
    bumps {!port_shed_count}. Messages handed directly to a live waiting
    server never occupy the queue and are admitted regardless of
    capacity. *)

val port_would_shed : Types.port -> bool
(** The admission predicate a plain [rpc] is gated on: the port's queue is
    at capacity and no live server waits in receive. Read-only and
    allocation-free — benchable as the shed decision cost. *)

val port_shed_count : Types.port -> int
(** Requests shed at this port so far, each a sender that got
    {!Types.Rejected} and one [Rpc_shed]. Evicting a request whose sender
    was killed while it queued only frees the slot: no shed. *)

val create_mutex : t -> ?policy:Types.wake_policy -> string -> Types.mutex
(** [create_mutex k name] with [policy] defaulting to [Fifo]. *)

val create_condition : t -> ?policy:Types.wake_policy -> string -> Types.condition
(** CThreads-style condition variable; a [Lottery_wake] policy makes
    signal/broadcast prefer funded waiters. *)

val create_semaphore :
  t -> ?policy:Types.wake_policy -> initial:int -> string -> Types.semaphore
(** Counting semaphore with [initial] permits.

    Mutex, condition and semaphore waiters sit in a {!Waitq}, in arrival
    order. Blocking appends in O(1); a [Fifo] wake (unlock, signal, post)
    takes the head in O(1) amortized, copying nothing — each waiter is
    copied at most once over its stay — so a handoff costs the same with
    64 waiters as with one. A [Lottery_wake] wake is O(waiters): the
    scheduler's pick sees every waiter, then the winner is unlinked.
    Killing a waiter, and moving the remaining waiters' ticket transfers
    to the new owner when a mutex is handed off, are O(waiters) too. *)

(** {2 Synchronization-object registries}

    Every port/mutex/condition/semaphore created through this kernel, in
    creation order. The registries never shrink: an object created here
    stays reachable for the kernel's life, so a workload that creates
    objects per request grows them without bound. Used by the {!check_invariants} auditor to cross-check
    wait-queue membership, and by fault injectors ({!Lotto_chaos}) to
    perturb wakeup order. *)

val ports : t -> Types.port list
val mutexes : t -> Types.mutex list
val conditions : t -> Types.condition list
val semaphores : t -> Types.semaphore list

val kill : t -> Types.thread -> unit
(** Forcibly terminate a thread (failure injection): {!Types.Killed} is
    delivered into its body, so exception handlers such as
    {!Api.with_lock}'s cleanup run before it dies. A body that catches
    [Killed] and continues survives. The victim is unhooked from whatever
    wait list held it (mutex/condition/semaphore/port queue, join lists);
    a pending timer-heap entry is left behind and dropped lazily by the
    timer machinery once it reaches the top of the heap. Valid between slices — from outside the simulation
    or a {!set_pre_select} hook — and from a thread's body on another
    thread; raises [Invalid_argument] on the currently running thread. *)

val run : t -> until:Time.t -> Types.run_summary
(** Run the simulation until virtual time [until], until every thread has
    exited, or until deadlock (threads blocked, none sleeping). Can be
    called repeatedly with increasing horizons; state persists. *)

val threads : t -> Types.thread list
(** Live (non-zombie) threads, in creation order. Threads occupy dense
    arena slots recycled after death, and an intrusive order index keeps
    creation-order iteration O(live) — dead history is not revisited.
    Exited threads leave the listing at the instant they are reaped; their
    records stay valid for anyone still holding them (and failed ones,
    other than killed ones, are reachable through {!failures}). *)

val live_thread_count : t -> int

val thread_slot : Types.thread -> int
(** The thread's dense arena slot; [-1] once it has exited and the slot was
    recycled. *)

val thread_generation : t -> Types.thread -> int
(** Generation of the thread's slot ([-1] once reaped). A (slot,
    generation) pair captured while a thread is live never matches any
    later occupant of the recycled slot — the ABA guard tested by the
    handle-recycling suite. *)

val failures : t -> (Types.thread * exn) list
(** Every thread whose body raised an exception other than
    {!Types.Killed}, with that exception, in creation order. A thread that
    died of [Killed] (a {!kill} its body did not catch) is only counted in
    {!kill_count}: the kernel keeps neither its record nor a list cell, so
    killing threads costs no memory once they are reaped. The list still
    grows by one entry per failing thread, for the kernel's whole life: a
    failure is a bug in a body, not a steady-state event. *)

val kill_count : t -> int
(** Threads that died of {!Types.Killed} so far: the deaths {!failures}
    leaves out. A body that catches [Killed] and returns normally is not
    counted; one that raises something else is in {!failures}. *)

(** {1 Fault injection and auditing} *)

val set_pre_select : t -> (unit -> unit) option -> unit
(** Install (or clear) a hook fired at every scheduling-decision boundary:
    after timers wake, immediately before the scheduler's [select]. No
    thread is running at that point, so the hook may inspect any kernel
    state, call {!kill}, reorder wait lists, or run {!check_invariants}.
    With no hook installed the cost is one branch per slice. *)

val check_invariants : t -> string list
(** Audit kernel data-structure coherence; safe to call between any two
    slices (it mutates nothing). Returns one human-readable string per
    violation (empty = healthy) and, when the bus has subscribers, emits an
    [Invariant_violation] event per finding. Checked: thread
    [state]/[pending] agreement (Zombie ⇔ [Exited], Blocked ⇔ waiting);
    a wait state's slot holds a wait record; exactly-once wait-list membership for mutexes, conditions, semaphores,
    port waiter queues and join lists — in both directions; sleeping
    threads have a live timer-heap entry; scatter [outstanding] matches
    unreplied slots; mutex owners are alive and free mutexes have no
    waiters; semaphore counts are non-negative and positive counts have no
    waiters. Ticket transfers are recorded only by the scheduler, which
    audits them ({!Lotto_sched.Lottery_sched.check_funding_coherence}). *)

(** {1 Observability}

    Every kernel owns a {!Lotto_obs.Bus} and publishes a typed
    {!Lotto_obs.Event.t} for each scheduling decision and synchronization
    action: [Select]/[Preempt] around every slice, [Block]/[Wake],
    [Spawn]/[Exit], [Donate]/[Compensate] for the paper's ticket
    mechanisms, [Lock_acquire]/[Lock_release] and [Rpc_send]/[Rpc_reply].
    Any number of subscribers (timelines, recorders, metrics, test probes)
    observe concurrently; with no subscribers the publication sites cost
    one branch and allocate nothing. *)

val bus : t -> Lotto_obs.Bus.t
(** The kernel's event bus; subscribe with {!Lotto_obs.Bus.subscribe}. *)

val set_profiler : t -> Lotto_obs.Profile.t option -> unit
(** Install (or clear) a scheduler phase profiler. The kernel records the
    {e dispatch} phase (each slice's host-clock execution time, bus
    publication included) and the {e publish} phase (each event's bus
    fan-out); schedulers that support profiling record their own
    valuation/draw phases into the same profiler (see
    {!Lotto_sched.Lottery_sched.set_profiler}). With no profiler the cost
    is one branch per site. *)

(** {1 Thread accessors} *)

val cpu_time : Types.thread -> int
val thread_name : Types.thread -> string
val thread_id : Types.thread -> int
val thread_state : Types.thread -> Types.state
