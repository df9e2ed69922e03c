(** Per-tenant service-level accounting.

    One {!tenant} row per tenant: an {!Lotto_obs.Hdr} histogram of
    end-to-end latency (arrival stamp → reply received, so client-side
    queueing and dispatch delay are included), plus request counters that
    satisfy the conservation law the service harness asserts:

    {[ arrivals = served + shed + in_flight ]}

    [in_flight] is derived, never stored, so the books cannot drift. *)

type tenant = {
  name : string;
  lat : Lotto_obs.Hdr.t;
  mutable arrivals : int;  (** open-loop arrivals generated *)
  mutable served : int;  (** replies received by client stubs *)
  mutable shed : int;  (** [Rejected] surfaced to client stubs *)
  mutable io_submitted : int;
  mutable io_served : int;  (** filled from the I/O manager at capture *)
}

type t

val create : unit -> t

val tenant : t -> string -> tenant
(** Find-or-create by name; rows keep first-seen order. *)

val tenants : t -> tenant list

val record_arrival : tenant -> unit
val record_served : tenant -> latency_us:int -> unit
val record_shed : tenant -> unit

val in_flight : tenant -> int
(** [arrivals - served - shed]: requests still queued client-side, queued
    at the port, or in service. *)

val goodput_per_s : tenant -> horizon:Lotto_sim.Time.t -> float
val percentile_ms : tenant -> float -> float
(** [percentile_ms ten 99.] — e2e latency percentile in ms ([nan] when no
    request completed). *)

val to_prom : t -> string
(** Prometheus text exposition under the namespace ["lotto_slo"]: counter
    families per tenant, an [in_flight] gauge, and a latency summary with
    quantiles 0.5/0.9/0.99/0.999. *)
