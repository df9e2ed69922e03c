(** Static description of one tenant of the shared service.

    A tenant buys a proportional share of the machine (funded as a
    {!Lotto_tickets.Funding} currency under lottery scheduling), runs a
    fixed worker pool behind a bounded RPC port, and offers open-loop
    load described by an {!Arrivals.profile}. *)

type spec = {
  name : string;
  share : int;  (** funding amount of the tenant's currency, in base tickets *)
  arrivals : Arrivals.profile;
  service : Lotto_sim.Time.t;  (** per-request CPU cost *)
  workers : int;  (** server threads draining the port *)
  stubs : int;  (** persistent client stubs issuing RPCs *)
  capacity : int;  (** bounded-port depth; [max_int] = unbounded *)
  shed : Lotto_sim.Types.shed_policy;
  io_per_req : int;  (** I/O requests submitted per served request *)
}

val spec :
  ?share:int ->
  ?service:Lotto_sim.Time.t ->
  ?workers:int ->
  ?stubs:int ->
  ?capacity:int ->
  ?shed:Lotto_sim.Types.shed_policy ->
  ?io_per_req:int ->
  arrivals:Arrivals.profile ->
  string ->
  spec
(** [spec ~arrivals name] with defaults share 100, service 5 ms, 4 workers,
    64 stubs, capacity 32, [Reject_new], no I/O. Raises [Invalid_argument]
    on non-positive share/workers/stubs or negative [io_per_req]. *)
