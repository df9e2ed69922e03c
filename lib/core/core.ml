(** Lottery scheduling: flexible proportional-share resource management.

    Facade over the library stack, in dependency order:

    - {!Rng} (with {!Park_miller}, the paper's Appendix-A generator):
      seeded, reproducible randomness;
    - {!Funding}: tickets and currencies — the resource-rights model of
      Sections 3–4 (transfers, inflation, currencies, compensation);
    - {!Draw} over {!List_lottery} / {!Tree_lottery}: one weighted-draw
      interface for every lottery in the system (Sections 4.2 and 5.1),
      one per shard in the sharded scheduler's §4.2 distributed lottery;
    - {!Time}, {!Kernel}, {!Api}, {!Types}: the discrete-event kernel
      standing in for Mach 3.0, with effect-based threads, synchronous RPC
      and mutexes;
    - {!Lottery_sched} plus the baselines {!Round_robin}, {!Decay_usage},
      {!Stride_sched};
    - workloads ({!Spinner}, {!Monte_carlo}, {!Db}, {!Corpus},
      {!Mutex_workload}) and space-shared managers ({!Inverse_memory}
      with the §6.2 inverse lottery, {!Io_bandwidth});
    - {!Service}: the multi-tenant serving stack — open-loop arrival
      generators, bounded RPC ports with overload shedding, per-tenant
      SLO accounting;
    - {!Experiments}: one runnable module per figure/table of the paper's
      evaluation, with {!Pool} fanning independent replications out across
      domains (index-merged, byte-identical to sequential).

    Quickstart:
    {[
      let rng = Core.Rng.create ~seed:42 () in
      let ls = Core.Lottery_sched.create ~rng () in
      let kernel = Core.Kernel.create ~sched:(Core.Lottery_sched.sched ls) () in
      let worker name =
        Core.Kernel.spawn kernel ~name (fun () ->
            while true do Core.Api.compute (Core.Time.ms 1) done)
      in
      let a = worker "a" and b = worker "b" in
      let base = Core.Lottery_sched.base_currency ls in
      ignore (Core.Lottery_sched.fund_thread ls a ~amount:200 ~from:base);
      ignore (Core.Lottery_sched.fund_thread ls b ~amount:100 ~from:base);
      ignore (Core.Kernel.run kernel ~until:(Core.Time.seconds 60));
      (* Core.Kernel.cpu_time a ≈ 2 × Core.Kernel.cpu_time b *)
    ]} *)

(* Randomness *)
module Rng = Lotto_prng.Rng
module Park_miller = Lotto_prng.Park_miller
module Splitmix64 = Lotto_prng.Splitmix64

(* Resource rights *)
module Funding = Lotto_tickets.Funding
module Acl = Lotto_tickets.Acl

(* Draw structures *)
module Arena = Lotto_arena
(** Slot arenas and registries backing the entity tables: {!Arena.Slots}
    (dense handles + generation counters) and {!Arena.Vec}. *)

module Draw = Lotto_draw.Draw
module List_lottery = Lotto_draw.List_lottery
module Tree_lottery = Lotto_draw.Tree_lottery

(* Simulation kernel *)
module Time = Lotto_sim.Time
module Types = Lotto_sim.Types
module Waitq = Lotto_sim.Waitq
module Kernel = Lotto_sim.Kernel
module Api = Lotto_sim.Api
module Timeline = Lotto_sim.Timeline

(* Observability: typed event bus, trace recorder, metrics registry *)
module Obs = Lotto_obs

(* Deterministic domain-parallel replication runner *)
module Pool = Lotto_par.Pool

(* Fault injection and invariant auditing *)
module Chaos = Lotto_chaos

(* Schedulers *)
module Lottery_sched = Lotto_sched.Lottery_sched
module Round_robin = Lotto_sched.Round_robin
module Decay_usage = Lotto_sched.Decay_usage
module Stride_sched = Lotto_sched.Stride_sched

(* Workloads *)
module Spinner = Lotto_workloads.Spinner
module Monte_carlo = Lotto_workloads.Monte_carlo
module Corpus = Lotto_workloads.Corpus
module Db = Lotto_workloads.Db
module Mutex_workload = Lotto_workloads.Mutex_workload
module Disk_service = Lotto_workloads.Disk_service
module Churn = Lotto_workloads.Churn

(* Multi-tenant service layer: open-loop load, admission control, SLOs *)
module Service = struct
  module Arrivals = Lotto_service.Arrivals
  module Tenant = Lotto_service.Tenant
  module Pool = Lotto_service.Pool
  module Client = Lotto_service.Client
  module Slo = Lotto_service.Slo
  module Harness = Lotto_service.Service
end

(* Space-shared resources *)
module Inverse_memory = Lotto_res.Inverse_memory
module Io_bandwidth = Lotto_res.Io_bandwidth
module Disk = Lotto_res.Disk
module Switch = Lotto_res.Switch

(* Statistics *)
module Descriptive = Lotto_stats.Descriptive
module Histogram = Lotto_stats.Histogram
module Chi_square = Lotto_stats.Chi_square
module Window = Lotto_stats.Window

(* Experiment reproductions *)
module Experiments = struct
  module Fig4 = Lotto_exp.Fig4
  module Fig5 = Lotto_exp.Fig5
  module Fig6 = Lotto_exp.Fig6
  module Fig7 = Lotto_exp.Fig7
  module Fig8 = Lotto_exp.Fig8
  module Fig9 = Lotto_exp.Fig9
  module Fig11 = Lotto_exp.Fig11
  module Compensation = Lotto_exp.Compensation
  module Overhead = Lotto_exp.Overhead
  module Mem = Lotto_exp.Mem
  module Io = Lotto_exp.Io
  module Disk_exp = Lotto_exp.Disk_exp
  module Switch_exp = Lotto_exp.Switch_exp
  module Ablation_quantum = Lotto_exp.Ablation_quantum
  module Ablation_variance = Lotto_exp.Ablation_variance
  module Ablation_mc = Lotto_exp.Ablation_mc
  module Manager_exp = Lotto_exp.Manager_exp
  module Disk_service_exp = Lotto_exp.Disk_service_exp
  module Search_length = Lotto_exp.Search_length
  module Service_insulation = Lotto_exp.Service_insulation
  module Service_vs_decay = Lotto_exp.Service_vs_decay
  module Service_capacity = Lotto_exp.Service_capacity
end
