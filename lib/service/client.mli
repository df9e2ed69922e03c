(** Open-loop client side of one tenant: a load generator plus a pool of
    persistent RPC stubs.

    The generator walks an absolute-time arrival schedule drawn from the
    tenant's {!Arrivals} profile and pushes intended arrival times onto a
    client-side backlog; stubs take them off a semaphore and issue the
    blocking RPC. End-to-end latency is measured from the {e intended}
    arrival time, so generator and stub dispatch delays count against the
    SLO — the open-loop property that makes overload visible.

    Stubs are persistent (rather than one thread per request) because
    zero-compute threads hold a standing compensation factor (§3.4) and
    are dispatched promptly under saturation; fresh threads would queue
    behind the full lottery for their first slice. *)

type t

val spawn :
  Lotto_sim.Kernel.t ->
  spec:Tenant.spec ->
  rng:Lotto_prng.Rng.t ->
  slo:Slo.t ->
  port:Lotto_sim.Types.port ->
  t
(** Spawn [spec.stubs] stub threads and one generator thread. The caller
    is responsible for funding them (amount 1 each suffices — they do no
    CPU work). [rng] should be a per-tenant split stream. *)

val stubs : t -> Lotto_sim.Types.thread list
val generator : t -> Lotto_sim.Types.thread

val accounted : t -> bool
(** The conservation law [arrivals = served + shed + backlog + holding].
    Holds at every point where no stub is between its counter updates —
    at every scheduling boundary. Kills need no extra term: a worker
    killed mid-request never replies, so its stub waits in [Waiting_reply]
    to the horizon with the request held, as does a stub killed mid-RPC. *)
