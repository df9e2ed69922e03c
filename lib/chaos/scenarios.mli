(** Canned workloads for chaos soaks, one per synchronization mechanism,
    plus the service stack itself.

    A scenario is a pure recipe: [build] spawns and funds its threads on
    the kernel/scheduler pair in the {!ctx}, calling [ctx.point] at
    interesting places so an installed {!Injector} can add timing faults
    there. Scenarios keep all state local, tolerate the kill of {e any} of
    their threads (peers stranded on a wait queue read as a deadlock,
    which the soak accepts after kills) and, except {!service},
    terminate on their own when no fault fires. *)

type ctx = {
  kernel : Lotto_sim.Kernel.t;
  ls : Lotto_sched.Lottery_sched.t;
  rng : Lotto_prng.Rng.t;  (** the stream [ls] draws from, to split in [build] *)
  point : unit -> unit;  (** body-level fault point (no-op when unfaulted) *)
  audit : (unit -> string list) -> unit;
      (** register a check of the scenario's own books, audited beside the
          kernel's *)
}

type t = { name : string; horizon : Lotto_sim.Time.t; build : ctx -> unit }

val rpc : t
(** Clients looping synchronous RPCs against two servers on one port. *)

val scatter : t
(** Scatter-gather [rpc_many] across three single-server ports (divided
    ticket transfers, kills mid-scatter). *)

val mutex : t
(** Four workers contending on a [Lottery_wake] mutex. *)

val service : t
(** The service stack ({!Lotto_service.Service.build}): a reject-new
    tenant beside a flood on a drop-oldest port with more stubs than port
    capacity plus workers, both doing I/O. Kills land on workers
    mid-request and stubs mid-RPC; it audits
    {!Lotto_service.Service.check}, runs to its 1 s horizon and takes no
    body-level faults. *)

val all : t list
(** The seven healthy scenarios a soak sweeps by default: the four above,
    [cond] (producers/consumers over a condition variable), [sem] (a
    two-permit [Lottery_wake] semaphore) and [sem-fifo] (consumers queued
    on a zero-permit FIFO semaphore: head-first handoff under kills and
    perturbation). *)

val rpc_buggy : t
(** The {!rpc} workload with the historical reply-after-kill bug
    deliberately reintroduced in the server (replying to a dead client
    raises). Not in {!all}; used by tests and CI to prove the soak
    {e catches} the bug as a reported failure. *)

val find : string -> t option
(** Lookup by name among {!all} and {!rpc_buggy}. *)
