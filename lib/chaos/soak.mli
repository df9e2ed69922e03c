(** The soak driver: sweep seeds over scenarios with fault injection and
    per-slice invariant auditing, and report minimal reproducers.

    Each run builds a fresh lottery-scheduled kernel from the seed, wires
    an {!Injector} into the kernel's pre-select hook, and (by default)
    runs the combined {!Audit} and the scenario's own check at {e every}
    scheduling boundary plus once after the run. Every run also carries a
    {!Lotto_obs.Span} tracer (a passive bus subscriber, so determinism is
    unaffected): after the run it is finalized and any structural span
    violation — a leaked, double-received or double-closed RPC span —
    fails the run alongside the invariant audit. A run fails when any
    invariant is violated, the kernel raises, or any thread dies with an
    exception other than {!Lotto_sim.Types.Killed}; deadlocks are tolerated (stranding peers is a legitimate consequence
    of a kill). Runs are deterministic: re-invoking {!run_one} with the
    same [(plan, scenario, seed)] reproduces the identical outcome. *)

type outcome = {
  scenario : string;
  seed : int;
  violations : (Lotto_sim.Time.t * string) list;
      (** first non-empty audit batch (auditing stops once corrupt), then
          any exception the kernel raised (its run summary then counts no
          slices), then any end-of-run span violations (prefixed
          ["span: "]) *)
  thread_failures : (string * string) list;
      (** name, exn of every thread whose body raised something other
          than [Killed] ({!Lotto_sim.Kernel.failures}) *)
  faults : (Lotto_sim.Time.t * string) list;  (** the injector's fault log *)
  summary : Lotto_sim.Types.run_summary;
  span_stats : Lotto_obs.Span.stats;
      (** accounting of every RPC span the run opened; after finalize
          [st_open = 0] always holds *)
}

val failed : outcome -> bool

val run_one :
  ?plan:Plan.t -> ?audit:bool -> ?cpus:int -> Scenarios.t -> seed:int -> outcome
(** One seeded chaos run. [audit] (default [true]) runs the invariant
    audit at every scheduling boundary. [cpus] (default [1]) runs the
    kernel with that many virtual CPUs and the lottery with one shard per
    CPU, so with [n > 1] fault injection also exercises
    placement, hysteresis rebalancing, work stealing and the
    {!Lotto_sched.Lottery_sched.check_sharding} audit. *)

type report = { runs : int; failures : outcome list }

val first_failure : report -> (string * int) option
(** The minimal reproducing [(scenario, seed)] pair, if anything failed. *)

val seed_range : from:int -> count:int -> int list

val soak :
  ?plan:Plan.t ->
  ?audit:bool ->
  ?cpus:int ->
  ?scenarios:Scenarios.t list ->
  seeds:int list ->
  unit ->
  report
(** Sweep [seeds] over [scenarios] (default {!Scenarios.all}), each run
    on a [cpus]-CPU kernel (default 1). *)

val report_to_string : report -> string
(** Human-readable report; failing runs print their repro pair, the
    violations/failures found and the injected-fault log. *)
