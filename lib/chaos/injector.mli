(** Deterministic fault injector.

    One injector instance per kernel (no global state): it owns a seeded
    {!Lotto_prng.Rng.t}, so the fault sequence is a pure function of
    [(plan, seed)] plus the kernel's deterministic evolution — replays
    reproduce faults exactly.

    Two injection surfaces:
    - {!step} fires at scheduling-decision boundaries (install it via
      {!Lotto_sim.Kernel.set_pre_select}): random kills and wakeup-order
      perturbations of registered wait lists;
    - {!point} is called from inside scenario thread bodies at interesting
      places: randomized extra sleeps and yields that shift timing.

    Every fault is appended to a replayable log and published as a
    [Fault_injected] event when the kernel's bus has subscribers. *)

type t

val create :
  ?plan:Plan.t -> rng:Lotto_prng.Rng.t -> kernel:Lotto_sim.Kernel.t -> unit -> t
(** [plan] defaults to {!Plan.default}. The kill fault may target any live
    thread. *)

val step : t -> unit
(** The scheduling-boundary injection point; safe to call whenever no
    thread is running (e.g. from a pre-select hook). *)

val point : t -> unit
(** The thread-body injection point; must be called from inside a
    simulated thread (it may perform [Api.sleep]/[Api.yield]). *)

val faults : t -> (Lotto_sim.Time.t * string) list
(** Chronological fault log, e.g. [(1200, "kill client2")]. *)
