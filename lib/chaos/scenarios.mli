(** Canned workloads for chaos soaks, one per synchronization mechanism.

    A scenario is a pure recipe: [build] spawns and funds its threads on
    the kernel/scheduler pair in the {!ctx}, calling [ctx.point] at
    interesting places so an installed {!Injector} can add timing faults
    there. Scenarios keep all state local, terminate on their own when no
    fault fires, and tolerate the kill of {e any} of their threads (peers
    stranded on a wait queue read as a deadlock, which the soak driver
    accepts after kills). *)

type ctx = {
  kernel : Lotto_sim.Kernel.t;
  ls : Lotto_sched.Lottery_sched.t;
  point : unit -> unit;  (** body-level fault point (no-op when unfaulted) *)
}

type t = { name : string; horizon : Lotto_sim.Time.t; build : ctx -> unit }

val rpc : t
(** Clients looping synchronous RPCs against two servers on one port. *)

val scatter : t
(** Scatter-gather [rpc_many] across three single-server ports (divided
    ticket transfers, kills mid-scatter). *)

val mutex : t
(** Four workers contending on a [Lottery_wake] mutex. *)

val cond : t
(** Producers/consumers over a condition variable. *)

val sem : t
(** Workers sharing a two-permit counting semaphore with a [Lottery_wake]
    policy. *)

val sem_fifo : t
(** Consumers queued on a zero-permit FIFO semaphore fed by two
    producers: the wait queue's head-first handoff under kills and
    perturbation. *)

val service : t
(** A worker pool behind a bounded [Drop_oldest] port under overrunning
    clients: admission control sheds while workers and clients are killed,
    and every surviving client asserts its requests all ended served or
    shed. Exercises the kill-style [Rejected] unwind next to real kill
    faults. *)

val all : t list
(** The seven healthy scenarios above — everything a soak sweeps by
    default. *)

val rpc_buggy : t
(** The {!rpc} workload with the historical reply-after-kill bug
    deliberately reintroduced in the server (replying to a dead client
    raises). Not in {!all}; used by tests and CI to prove the soak
    {e catches} the bug as a reported failure. *)

val find : string -> t option
(** Lookup by name among {!all} and {!rpc_buggy}. *)
