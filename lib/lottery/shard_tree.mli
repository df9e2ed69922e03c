(** Inter-shard partial-sum tree for per-CPU lottery shards.

    The paper's §4.2 distributed lottery keeps a binary tree of partial
    ticket sums over the nodes and descends it to pick the node holding
    the winning ticket, each node running its own local lottery. This
    module is that inter-node tree: each leaf mirrors the live ticket mass
    of one per-shard {!Draw.t}, the node's local lottery, so a sharded
    scheduler can pick a steal source ticket-weighted, find the
    least-loaded shard for placement, and read the global mass — all
    O(log shards) or O(shards) and allocation-free. The sharded
    [Lottery_sched] is the system's distributed lottery. *)

type t

val create : shards:int -> t
(** All leaves start at mass 0. Raises on [shards <= 0]. *)

val shards : t -> int

val set : t -> int -> float -> unit
(** [set t i mass] writes shard [i]'s absolute mass, bubbling the delta to
    the root; a no-op when the value is unchanged. *)

val get : t -> int -> float

val get_at : t -> int -> float array -> int -> unit
(** [get_at t i dst j] stores [get t i] in [dst.(j)], so the result is
    never boxed to cross the call. *)

val total_at : t -> float array -> int -> unit
(** [total_at t dst j] stores [total t] in [dst.(j)]. *)

val adjust_at : t -> int -> float array -> int -> unit
(** [adjust_at t i src j] adds [src.(j)] to shard [i]'s mass, clamping the
    result at 0 — exactly [set t i (max 0 (get t i +. src.(j)))]. The
    delta is read from the caller's array so it is never boxed to cross
    the call (see {!Draw.set_weight_at}). *)

val total : t -> float

val pick : t -> bits:int -> int
(** Ticket-weighted shard pick for a uniform 53-bit draw [bits] in
    [\[0, 2^53)] (see {!Lotto_prng.Rng.bits53}): with
    [u = bits / 2^53], exactly {!Lotto_prng.Rng.float_unit}'s deviate, the
    shard covering [u * total] in the partial-sum descent, or [-1] when no
    shard holds mass. Zero-mass shards never win. Taking the bits rather
    than [u] keeps the deviate unboxed across the call. *)

val min_shard : t -> int
(** Least-loaded shard, lowest id on ties — the deterministic
    ticket-weighted placement target. *)

val max_shard : t -> int
(** Most-loaded shard, lowest id on ties — the rebalance source. *)
