(** Multi-tenant service harness: wires tenants, pools, clients, funding,
    and the optional I/O device into one kernel run and captures a
    per-tenant SLO report.

    Under {!Lottery} each tenant is a {!Lotto_tickets.Funding} currency
    funded with its share from the base currency; the currency backs the
    tenant's workers (amount 100 each), client stubs and generator
    (amount 1 each — they do no CPU work), and, when the tenant does I/O,
    a funded {!Lotto_res.Io_bandwidth} client — one currency pricing both
    resources, the paper's §6 design. Under {!Decay_usage} no funding
    exists and the same workload runs on the decay-usage scheduler, which
    is what the lottery-vs-SRM comparison experiment exploits. *)

type sched_kind = Lottery | Decay_usage

type config = {
  seed : int;
  horizon : Lotto_sim.Time.t;
  quantum : Lotto_sim.Time.t;
  sched_kind : sched_kind;
  io_slot : Lotto_sim.Time.t option;
      (** virtual time between I/O device slots; [None] disables the device *)
  tenants : Tenant.spec list;
}

val config :
  ?seed:int ->
  ?horizon:Lotto_sim.Time.t ->
  ?quantum:Lotto_sim.Time.t ->
  ?sched_kind:sched_kind ->
  ?io_slot:Lotto_sim.Time.t ->
  Tenant.spec list ->
  config
(** Defaults: seed 94, horizon 60 s, quantum 10 ms, {!Lottery}, no I/O
    device. Raises [Invalid_argument] on an empty tenant list. *)

type tenant_report = {
  t_name : string;
  t_share : int;
  arrivals : int;
  served : int;
  shed : int;  (** [Rejected] outcomes observed by the tenant's stubs *)
  in_flight : int;  (** arrivals − served − shed at capture *)
  kernel_shed : int;  (** the kernel's own count at the tenant's port *)
  goodput_per_s : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;  (** e2e latency percentiles; [nan] when nothing served *)
  worker_quanta : int;
  io_submitted : int;
  io_served : int;
}

type report = {
  tenants : tenant_report list;
  chi_square_p : float option;
      (** p-value of worker CPU time against share-proportional
          entitlements ({!Lotto_obs.Metrics.fairness}); high = consistent *)
  accounted : bool;
      (** every tenant satisfied
          [arrivals = served + shed + backlog + holding] at capture *)
  shed_consistent : bool;
      (** client-observed shed counts equal kernel port shed counts *)
  total_quanta : int;
  slices : int;
  prom : string;  (** {!Slo.to_prom} capture, ready to expose or snapshot *)
}

val run : ?cpus:int -> config -> report
(** Build the world, run to the horizon, capture. Deterministic per
    [(config, cpus)]. *)

val find : report -> string -> tenant_report
(** Raises [Not_found] for an unknown tenant name. *)
