open Lotto_sim
module Ls = Lotto_sched.Lottery_sched
module Counter = Lotto_stats.Window.Counter
module Running = Lotto_stats.Descriptive.Running
module Rng = Lotto_prng.Rng

type t = {
  th : Types.thread;
  counter : Counter.t;
  stats : Running.t;
  mutable trials : int;
  mutable ticket_amount : int;
}

let max_ticket = 1_000_000_000

(* CPU per trial, and trials between funding updates *)
let trial_cost = Time.us 50
let batch = 2000

let spawn kernel ls ~name ~rng ~from ?(scale = 1e10) ?(exponent = 2.)
    ?(window = Time.seconds 8) ?(start_at = 0) () =
  if exponent <= 0. then invalid_arg "Monte_carlo.spawn: exponent <= 0";
  let counter = Counter.create ~width:window in
  let stats = Running.create () in
  let cell = ref None in
  let ticket_cell = ref None in
  let th =
    Kernel.spawn kernel ~name (fun () ->
        let self = Option.get !cell in
        let ticket = Option.get !ticket_cell in
        if start_at > 0 then Api.sleep start_at;
        while true do
          (* Charge the CPU cost, then actually run the trials so the error
             dynamics driving the feedback loop are genuine. *)
          Api.compute (batch * trial_cost);
          for _ = 1 to batch do
            let x = Rng.float_unit rng in
            Running.add stats (sqrt (1. -. (x *. x)))
          done;
          self.trials <- self.trials + batch;
          Counter.record counter ~time:(Api.now ()) ~count:batch;
          (* Dynamic inflation: ticket value proportional to a power of the
             relative error — the paper uses the square (§5.2) and notes
             (footnote 6) that any monotonically increasing function of the
             error converges, linear more slowly and cubic faster. *)
          let err = Running.stderr_of_mean stats /. Running.mean stats in
          let amount =
            if Float.is_finite err then
              int_of_float
                (Float.min (float_of_int max_ticket) (scale *. (err ** exponent)))
              |> max 1
            else max_ticket
          in
          if amount <> self.ticket_amount then begin
            Ls.set_ticket_amount ls ticket amount;
            self.ticket_amount <- amount
          end
        done)
  in
  (* Fund at spawn with the maximum amount: before any trial the task's
     error is infinite, so a newly started experiment outbids converged
     ones, exactly the catch-up dynamic of Figure 6. While the task sleeps
     until [start_at], its thread currency is inactive, so this funding
     does not dilute running siblings. *)
  let ticket = Ls.fund_thread ls th ~amount:max_ticket ~from in
  ticket_cell := Some ticket;
  let t = { th; counter; stats; trials = 0; ticket_amount = max_ticket } in
  cell := Some t;
  t

let thread t = t.th
let trials t = t.trials
let estimate t = if t.trials = 0 then nan else Running.mean t.stats
let relative_error t = Running.stderr_of_mean t.stats /. Running.mean t.stats
let current_ticket t = t.ticket_amount
let cumulative t ~upto = Counter.cumulative t.counter ~upto
