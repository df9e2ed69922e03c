(** Tree-based lottery over partial ticket sums (Section 4.2):
    selection and weight updates are O(log n).

    Implemented as a Fenwick (binary indexed) tree of weights with a slot
    free-list, so clients can join and leave dynamically. The paper proposes
    this structure for large client counts and as the basis of a distributed
    lottery; the [search-length] experiment sets its lg n descent against
    {!List_lottery}'s counted search lengths. *)

type 'a t
type 'a handle

val create : ?initial_capacity:int -> unit -> 'a t
val add : 'a t -> client:'a -> weight:float -> 'a handle
val remove : 'a t -> 'a handle -> unit
(** Idempotent. *)

val handle : 'a -> 'a handle
(** A handle for [client] that is in no structure yet: {!readd} inserts
    it. Lets a caller allocate a client's one handle up front and keep it
    for the client's whole life. *)

val readd : 'a t -> 'a handle -> weight:float -> unit
(** Insert a handle that is in no structure — fresh from {!handle} or
    invalidated by {!remove} — reusing the handle record itself (raises
    [Invalid_argument] if it is still live). This is the migration
    primitive: detaching a client from one structure and re-inserting it
    into another of the same backend costs no handle allocation. A
    structure keeps no reference to a removed client, except the first
    client ever inserted, which fills vacated cells. *)

val readd_at : 'a t -> 'a handle -> float array -> int -> unit
(** [readd_at t h src i] is [readd t h ~weight:src.(i)]. *)

val clear : 'a t -> unit
(** Remove every client at once (invalidating their handles), keeping the
    allocated capacity for reuse; subsequent adds refill slots from 0 in
    insertion order, exactly like a fresh structure. *)

val set_weight : 'a t -> 'a handle -> float -> unit

val set_weight_at : 'a t -> 'a handle -> float array -> int -> unit
(** [set_weight_at t h src i] is [set_weight t h src.(i)], reading the
    weight from the caller's flat array so it is not boxed to cross the
    call (see {!Draw.set_weight_at}). *)

val weight : 'a t -> 'a handle -> float
val client : 'a handle -> 'a
val mem : 'a t -> 'a handle -> bool
val total : 'a t -> float

val total_at : 'a t -> float array -> int -> unit
(** [total_at t dst j] stores [total t] in [dst.(j)], so the total is not
    boxed to cross the call. *)

val size : 'a t -> int

val draw : 'a t -> Lotto_prng.Rng.t -> 'a handle option
val draw_client : 'a t -> Lotto_prng.Rng.t -> 'a option

val draw_slot : 'a t -> Lotto_prng.Rng.t -> int
(** Allocation-free draw: the winner's arena slot, or [-1] when the total
    weight is zero (no randomness consumed then). The slot is valid until
    the next mutation; resolve it with {!client_at}. *)

val client_at : 'a t -> int -> 'a
(** Resolve a slot returned by {!draw_slot}. *)

val draw_with_value : 'a t -> winning:float -> 'a handle option
(** Deterministic draw for a winning value in [\[0, total)]: the winner is
    the client covering that value in slot (insertion) order. *)

val drift_fallbacks : 'a t -> int
(** Draws (including {!draw_with_value}) whose Fenwick descent landed past
    every live client — float drift in the incrementally maintained
    partial sums left the root above the true total — and fell back to an
    O(n) scan for the last live slot. Rare by construction; cumulative. *)

val iter : 'a t -> ('a handle -> unit) -> unit
(** Slot order (insertion order modulo slot reuse). *)
