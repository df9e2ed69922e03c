(** §5.6 — system overhead.

    The paper compares wall-clock completion of identical workloads under
    its lottery kernel and unmodified Mach (timesharing), finding the
    unoptimized lottery prototype's overhead comparable. Our analog runs
    the same simulated workload (3-task and 8-task Dhrystone mixes) under
    each scheduler and reports (a) the host CPU cost per scheduling
    decision — the real overhead of the policy code — and (b) the virtual
    CPU split, to confirm every policy kept the machine saturated. The
    host column measures the host, not the simulation: compare policies
    within one run. The [search-length] experiment counts the §4.2 draw
    cost per structure. *)

type row = {
  scheduler : string;
  tasks : int;
  decisions : int;
  host_ns_per_decision : float;
  virtual_cpu_total : int;  (** summed thread CPU; equals the horizon *)
}

type t = { rows : row array }

val run : ?seed:int -> ?duration:Lotto_sim.Time.t -> ?jobs:int -> unit -> t
(** Runs 3-task and 8-task spinner mixes under lottery-list, lottery-tree,
    round-robin, decay-usage and stride; [jobs] runs the ten cells on that
    many domains. Decisions and virtual-CPU columns are byte-identical
    across [jobs]; the host-ns column is a wall-clock measurement and never
    reproducible exactly (and reflects contention when parallel). *)

val print : t -> unit

val to_csv : t -> string
(** Serialize the result for external plotting. *)
