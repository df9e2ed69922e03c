open Lotto_sim
open Lotto_sim.Types
module Rng = Lotto_prng.Rng
module Obs = Lotto_obs

type t = {
  plan : Plan.t;
  rng : Rng.t;
  kernel : Kernel.t;
  mutable kills_done : int;
  mutable log : (Time.t * string) list; (* reverse chronological *)
}

let create ?(plan = Plan.default) ~rng ~kernel () =
  Plan.validate plan;
  { plan; rng; kernel; kills_done = 0; log = [] }

let record t ?th fault =
  t.log <- (Kernel.now t.kernel, fault) :: t.log;
  let bus = Kernel.bus t.kernel in
  if Obs.Bus.active bus then begin
    let who =
      match th with
      | Some th -> Obs.Event.actor_of ~tid:th.id ~tname:th.name
      | None -> Obs.Event.kernel_actor
    in
    Obs.Bus.emit bus ~time:(Kernel.now t.kernel)
      (Obs.Event.Fault_injected { who; fault })
  end

(* Every draw is conditional on a positive probability, so a zeroed-out
   plan consumes nothing from the stream: the same seed then drives an
   identical run with and without the injector installed. *)
let chance t p = p > 0. && Rng.float_unit t.rng < p

let pick t arr = arr.(Rng.int_below t.rng (Array.length arr))

let try_kill t =
  if t.kills_done < t.plan.Plan.max_kills && chance t t.plan.Plan.kill_prob then begin
    let candidates =
      List.filter
        (fun th -> th.state <> Zombie)
        (Kernel.threads t.kernel)
    in
    if candidates <> [] then begin
      let th = pick t (Array.of_list candidates) in
      t.kills_done <- t.kills_done + 1;
      record t ~th ("kill " ^ th.name);
      Kernel.kill t.kernel th
    end
  end

type target =
  | P_mutex of mutex
  | P_cond of condition
  | P_sem of semaphore
  | P_port of port

(* Wakeup-order perturbation: rotate one wait list. Membership is
   preserved, so a healthy kernel stays invariant-clean — only code that
   wrongly depends on arrival order (or holds stale aliases into a list)
   breaks under this. *)
let try_perturb t =
  if chance t t.plan.Plan.perturb_prob then begin
    let k = t.kernel in
    let many n = n >= 2 in
    let targets =
      List.filter_map
        (fun m -> if many (Waitq.length m.lock_waiters) then Some (P_mutex m) else None)
        (Kernel.mutexes k)
      @ List.filter_map
          (fun c -> if many (Waitq.length c.cond_waiters) then Some (P_cond c) else None)
          (Kernel.conditions k)
      @ List.filter_map
          (fun s -> if many (Waitq.length s.sem_waiters) then Some (P_sem s) else None)
          (Kernel.semaphores k)
      @ List.filter_map
          (fun p -> if many (Queue.length p.waiters) then Some (P_port p) else None)
          (Kernel.ports k)
    in
    if targets <> [] then
      match pick t (Array.of_list targets) with
      | P_mutex m ->
          Waitq.rotate m.lock_waiters;
          record t ("perturb-waiters mutex " ^ m.mutex_name)
      | P_cond c ->
          Waitq.rotate c.cond_waiters;
          record t ("perturb-waiters cond " ^ c.cond_name)
      | P_sem s ->
          Waitq.rotate s.sem_waiters;
          record t ("perturb-waiters sem " ^ s.sem_name)
      | P_port p -> (
          match Queue.take_opt p.waiters with
          | Some w ->
              Queue.push w p.waiters;
              record t ("perturb-waiters port " ^ p.port_name)
          | None -> ())
  end

let step t =
  try_kill t;
  try_perturb t

let point t =
  if chance t t.plan.Plan.sleep_prob then begin
    let d = 1 + Rng.int_below t.rng (max 1 t.plan.Plan.max_sleep) in
    record t ~th:(Api.self ()) (Printf.sprintf "sleep %d" d);
    Api.sleep d
  end
  else if chance t t.plan.Plan.yield_prob then begin
    record t ~th:(Api.self ()) "yield";
    Api.yield ()
  end

let faults t = List.rev t.log
