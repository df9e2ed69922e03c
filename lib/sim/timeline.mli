(** ASCII execution timelines.

    Subscribes to a kernel's {!Lotto_obs.Bus}, records which thread each
    quantum went to (from the typed [Preempt] events, which carry exact
    per-slice tick counts), and renders a Gantt-style chart — one row per
    thread, one column per time bucket, with the glyph showing how much of
    the bucket the thread received. Handy for eyeballing proportional
    shares and transfer effects in examples and while debugging schedulers.

    A timeline is one bus subscriber among many: attaching does {e not}
    displace recorders, metrics registries, or other {!Kernel.bus}
    subscribers, and several timelines can observe one kernel
    simultaneously.

    Memory grows without bound: one row per thread name ever observed,
    dead threads included, and one cell per bucket in which the thread
    ran, so a timeline grows with the run's length and its thread churn.
    It is meant for short runs that are rendered. *)

type t

val attach : Kernel.t -> ?bucket:Time.t -> unit -> t
(** Start recording. [bucket] is the rendering column width (default 1 s). *)

val detach : t -> unit
(** Stop recording (removes only this timeline's subscription; any other
    bus subscribers keep observing). Idempotent. *)

val render : ?width:int -> t -> string
(** Render rows for every thread observed, covering the recorded interval;
    at most [width] columns (default 72; the bucket width grows to fit).
    Glyphs: ['#'] > 2/3 of the bucket, ['+'] > 1/3, ['.'] > 0, space =
    none. *)

val cpu_of : t -> string -> int
(** Recorded CPU ticks for a thread name ([0] if never seen). *)
