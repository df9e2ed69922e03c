(** Shared plumbing for the experiment reproductions. *)

module Ls = Lotto_sched.Lottery_sched

val lottery_setup :
  ?mode:Ls.mode ->
  ?quantum:Lotto_sim.Time.t ->
  ?use_compensation:bool ->
  seed:int ->
  unit ->
  Lotto_sim.Kernel.t * Ls.t
(** A kernel driven by a freshly seeded lottery scheduler.
    [quantum] defaults to the paper's 100 ms. *)

val ratio : float -> float -> float
(** [a / b], guarding division by zero with [nan]. *)

val iratio : int -> int -> float

val print_header : string -> unit
(** Banner for one experiment section in harness output. *)

val print_kv : string -> ('a, unit, string, unit) format4 -> 'a
(** [print_kv key fmt ...] prints an aligned ["  key: value"] row. *)

val print_row : string list -> unit
(** Tab-aligned data row. *)

val csv : header:string list -> string list list -> string
(** Serialize rows as RFC-4180-ish CSV (values containing commas or quotes
    are quoted). *)

val f : float -> string
(** Compact float cell ([%.6g]). *)

val mkdir_p : string -> unit
(** Recursive [mkdir -p]: create every missing component of a directory
    path; existing directories (including ones that appear concurrently)
    are fine. *)
