(** Figure 8 — controlling video display rates (§5.4).

    Three viewers of the same video receive a 3:2:1 allocation, changed to
    3:1:2 midway through the run. The paper observed frame-rate ratios of
    1.92:1.50:1 before and 1.92:1:1.53 after the change (against ideals of
    3:2:1 and 3:1:2 — the single-threaded X server distorted the absolute
    split, a limitation our simulator does not share). *)

type viewer_result = {
  name : string;
  cumulative : int array;
  fps_before : float;
  fps_after : float;
}

type t = {
  viewers : viewer_result array;  (** A, B, C *)
  switch_at : Lotto_sim.Time.t;
  ratios_before : float * float;  (** A/C, B/C; ideal 3, 2 *)
  ratios_after : float * float;  (** A/B, C/B; ideal 3, 2 *)
}

val run : ?seed:int -> ?duration:Lotto_sim.Time.t -> unit -> t
(** Defaults: 300 s, switch at half time. Each viewer is a
    {!Lotto_workloads.Spinner} whose iteration is one 200 ms frame. *)

val print : t -> unit

val to_csv : t -> string
(** Serialize the result for external plotting. *)
