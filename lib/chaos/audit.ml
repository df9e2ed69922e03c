open Lotto_sim
module LS = Lotto_sched.Lottery_sched
module Obs = Lotto_obs

let check ?sched kernel =
  let kernel_vs = Kernel.check_invariants kernel in
  let sched_vs =
    match sched with
    | None -> []
    | Some ls ->
        (* check_sharding audits every shard count, one included, so the
           combined audit is safe for every kernel shape *)
        LS.check_funding_coherence ls (Kernel.threads kernel)
        @ LS.check_sharding ls
  in
  (* [Kernel.check_invariants] already published its findings; mirror the
     scheduler-side ones onto the same bus so subscribers see everything. *)
  let bus = Kernel.bus kernel in
  if sched_vs <> [] && Obs.Bus.active bus then
    List.iter
      (fun what ->
        Obs.Bus.emit bus ~time:(Kernel.now kernel)
          (Obs.Event.Invariant_violation { who = Obs.Event.kernel_actor; what }))
      sched_vs;
  kernel_vs @ sched_vs
