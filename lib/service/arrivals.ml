module Rng = Lotto_prng.Rng

type profile =
  | Poisson of float
  | Mmpp of {
      calm_per_s : float;
      burst_per_s : float;
      calm_ms : float;
      burst_ms : float;
    }

let validate = function
  | Poisson r ->
      if not (r > 0.) then invalid_arg "Arrivals: Poisson rate must be > 0"
  | Mmpp { calm_per_s; burst_per_s; calm_ms; burst_ms } ->
      if
        not
          (calm_per_s > 0. && burst_per_s > 0. && calm_ms > 0. && burst_ms > 0.)
      then invalid_arg "Arrivals: Mmpp parameters must be > 0"

let mean_rate_per_s = function
  | Poisson r -> r
  | Mmpp { calm_per_s; burst_per_s; calm_ms; burst_ms } ->
      (* time-weighted average of the two state rates *)
      ((calm_per_s *. calm_ms) +. (burst_per_s *. burst_ms))
      /. (calm_ms +. burst_ms)

(* [draw] is one cell that receives each deviate from
   {!Rng.exponential_at}: returned across the module boundary, the float
   would be boxed on every arrival. The means are separate fields, not
   arrays, for the same reason: a field is passed as the boxed float it
   already is. *)
type t =
  | P of { rng : Rng.t; mean_us : float; draw : float array }
  | M of {
      rng : Rng.t;
      calm_mean_us : float;  (** mean interarrival in each state, µs *)
      burst_mean_us : float;
      calm_sojourn_us : float;  (** mean sojourn in each state, µs *)
      burst_sojourn_us : float;
      mutable state : int;  (** 0 calm, 1 burst *)
      until_switch : float array;
          (** one cell: µs left in the current state (a flat float store,
              so updating it allocates nothing) *)
      draw : float array;
    }

let create ~rng profile =
  validate profile;
  match profile with
  | Poisson r -> P { rng; mean_us = 1e6 /. r; draw = [| 0. |] }
  | Mmpp { calm_per_s; burst_per_s; calm_ms; burst_ms } ->
      let calm_sojourn_us = calm_ms *. 1e3 in
      M
        {
          rng;
          calm_mean_us = 1e6 /. calm_per_s;
          burst_mean_us = 1e6 /. burst_per_s;
          calm_sojourn_us;
          burst_sojourn_us = burst_ms *. 1e3;
          state = 0;
          until_switch = [| Rng.exponential rng ~mean:calm_sojourn_us |];
          draw = [| 0. |];
        }

let next_gap_us t =
  let gap =
    match t with
    | P { rng; mean_us; draw } ->
        Rng.exponential_at rng ~mean:mean_us draw 0;
        draw.(0)
    | M s ->
        (* Walk exponential candidate gaps across state switches: thanks to
           memorylessness, a candidate that overshoots the switch point is
           discarded and redrawn at the boundary under the new state's
           rate, which is exactly the MMPP law. *)
        let consumed = ref 0. in
        let gap = ref (-1.) in
        while !gap < 0. do
          Rng.exponential_at s.rng
            ~mean:(if s.state = 0 then s.calm_mean_us else s.burst_mean_us)
            s.draw 0;
          let cand = s.draw.(0) in
          let left = s.until_switch.(0) in
          if cand <= left then begin
            s.until_switch.(0) <- left -. cand;
            gap := !consumed +. cand
          end
          else begin
            consumed := !consumed +. left;
            s.state <- 1 - s.state;
            Rng.exponential_at s.rng
              ~mean:
                (if s.state = 0 then s.calm_sojourn_us else s.burst_sojourn_us)
              s.until_switch 0
          end
        done;
        !gap
  in
  let g = int_of_float gap in
  if g < 1 then 1 else g
