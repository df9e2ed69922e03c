(** Thread churn: the paper's long-running scheduler with threads coming
    and going (Fig. 6 starts tasks mid-run). Every 10 ms of virtual time
    one transient thread is spawned and funded from base, and the oldest
    transient beyond 32 is killed. Each transient loops on a
    short compute, one RPC to a long-lived echo server and a sleep, so it
    selects, blocks, wakes, donates and is sometimes killed mid-request.

    Used to check that memory stays flat under churn: with the kernel's
    and the subscribers' retention bounded, live words after a full major
    collection do not grow with the number of kills. *)

type t

val create : Lotto_sched.Lottery_sched.t -> Lotto_sim.Kernel.t -> t
(** Spawns and funds the echo server. *)

val run : t -> until:Lotto_sim.Time.t -> unit
(** Spawn, kill and run the kernel 10 ms at a time until its clock
    reaches [until]. *)

val kills : t -> int
(** Transients killed so far. *)
