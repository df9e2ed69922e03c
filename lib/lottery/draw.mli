(** One draw structure, many resources.

    Every lottery in the system — CPU scheduling, mutex/condition/semaphore
    waiter picks, disk, I/O bandwidth, the packet switch, inverse memory —
    draws through this interface, so the backing structure (the paper's §4.2
    move-to-front list or the O(log n) partial-sum tree it proposes for
    large client counts) is a deployment choice rather than a per-subsystem
    fork.

    Both structures share one contract: weights are nonnegative floats;
    zero-weight clients never win; a draw returns [None] (or [-1] from
    {!draw_slot}) without consuming randomness when the total weight is
    zero. {!t} is a dispatching wrapper chosen at runtime with {!of_mode}.
    The paper's distributed lottery is one {!t} per shard, as the sharded
    [Lottery_sched] runs it: a shard's ticket mass is its draw's
    {!total} plus the weights of the threads dispatched from it. *)

type mode =
  | List  (** move-to-front list, O(n) draw — the paper's prototype *)
  | Tree  (** Fenwick partial-sum tree, O(log n) draw and update *)

(** {1 Runtime-dispatched wrapper}

    ['a t] hides which structure is behind a draw site, so one code path
    serves both backends (this is what the scheduler and the resource
    managers use). *)

type 'a t
type 'a handle

val of_mode : mode -> 'a t

val of_list : 'a List_lottery.t -> 'a t
(** Wrap an existing list (e.g. to pick a non-default list order). *)

val add : 'a t -> client:'a -> weight:float -> 'a handle
(** Raises [Invalid_argument] on negative weights. *)

val handle : 'a t -> 'a -> 'a handle
(** A handle for a client that is in no structure yet, of [t]'s backend;
    {!readd} (or {!readd_at}) inserts it into any structure of that
    backend. A caller that keeps one handle per client for the client's
    whole life allocates it here once. *)

val remove : 'a t -> 'a handle -> unit
(** Idempotent. *)

val readd : 'a t -> 'a handle -> weight:float -> unit
(** Insert a handle that is in no structure — fresh from {!handle} or
    invalidated by {!remove} — into [t],
    which may be a {e different} structure of the same backend than the
    one it was removed from. The handle record (and any [Some handle] box
    the caller holds) is reused in place, so moving a client between two
    per-CPU shards is O(remove) + O(insert) with zero allocation. Raises [Invalid_argument] if the handle is still live
    or the backend differs. *)

val readd_at : 'a t -> 'a handle -> float array -> int -> unit
(** [readd_at t h src i] is [readd t h ~weight:src.(i)]; see
    {!set_weight_at}. *)

val mem : 'a t -> 'a handle -> bool
(** Whether the handle is currently live in {e this} structure — false for
    a removed handle (until {!readd}) and for a handle living in a
    different structure, which is what lets the sharding audit prove a
    migrated thread is in exactly one shard. *)

val clear : 'a t -> unit
(** Remove every client at once (invalidating their handles), keeping the
    structure for reuse — the cheap way to recycle a scratch draw between
    ephemeral lotteries (e.g. mutex-waiter picks). *)

val set_weight : 'a t -> 'a handle -> float -> unit

val set_weight_at : 'a t -> 'a handle -> float array -> int -> unit
(** [set_weight_at t h src i] is [set_weight t h src.(i)] for callers that
    keep their weights in a flat array. A float passed to a call the
    compiler does not inline is boxed, and a call across modules is never
    inlined in a build with [-opaque] (dune's dev profile); reading the
    weight out of [src] instead keeps the write allocation-free in every
    build on the [Tree] backend, the one the sharded scheduler re-weighs
    on every block and wake. On the [List] backend the write is
    allocation-free in an optimized build, which inlines
    {!List_lottery.set_weight} here; under [-opaque] it boxes the weight
    once. *)

val weight : 'a t -> 'a handle -> float
val client : 'a handle -> 'a
val total : 'a t -> float

val total_at : 'a t -> float array -> int -> unit
(** [total_at t dst j] stores [total t] in [dst.(j)]: a float returned
    across a call the compiler does not inline is boxed (see
    {!set_weight_at}), so a caller that reads totals on an
    allocation-free path reads them through its own flat array. *)

val size : 'a t -> int

val draw : 'a t -> Lotto_prng.Rng.t -> 'a handle option
(** [None] when the structure is empty or all weights are zero (no
    randomness is consumed in that case). *)

val draw_client : 'a t -> Lotto_prng.Rng.t -> 'a option

val draw_slot : 'a t -> Lotto_prng.Rng.t -> int
(** Allocation-free draw through the wrapper: one dispatch, an int out, no
    options. [-1] when the total weight is zero (no randomness consumed in
    that case); otherwise a backend token valid until the next mutation,
    resolved with {!client_at}. This is the hot path the scheduler and the
    resource managers use per decision. *)

val client_at : 'a t -> int -> 'a
(** Resolve a token returned by {!draw_slot}: one load from the
    structure's flat client array. *)

val draw_k : 'a t -> Lotto_prng.Rng.t -> k:int -> 'a array -> int
(** Batch draw: up to [min k (Array.length out)] lotteries, each consuming
    randomness exactly like {!draw} (the list applies move-to-front per
    draw), winners written into the caller's scratch array; returns how
    many were drawn ([0] when the total weight is zero). *)

val draw_with_value : 'a t -> winning:float -> 'a handle option
val iter : 'a t -> ('a handle -> unit) -> unit

val drift_fallbacks : 'a t -> int
(** Draws on the [Tree] backend whose partial-sum descent overshot every
    live client through float drift and fell back to an O(n) scan (see
    {!Tree_lottery.drift_fallbacks}); [0] on the [List] backend. *)

val comparisons : 'a t -> int option
(** Cumulative list entries examined ([None] on the [Tree] backend): the
    paper's search-length metric. *)
