(** Combined invariant audit: kernel structures plus (optionally) the
    lottery scheduler's funding view. *)

val check : ?sched:Lotto_sched.Lottery_sched.t -> Lotto_sim.Kernel.t -> string list
(** [check ?sched k] runs {!Lotto_sim.Kernel.check_invariants} and, when
    [sched] is given, {!Lotto_sched.Lottery_sched.check_funding_coherence}
    over the kernel's threads plus
    {!Lotto_sched.Lottery_sched.check_sharding} (at every shard count,
    one included). Returns every violation found (empty =
    healthy); mutates nothing, so it can run between any two slices.
    Scheduler-side findings are published as [Invariant_violation] events
    when the kernel's bus has subscribers (kernel-side ones already are). *)
