(** List-based lottery with the paper's §4.2 search optimizations.

    A draw picks a winning value uniformly below the total weight and scans
    the client list accumulating a running sum until it reaches the winner —
    O(n) worst case. The paper suggests two orderings that shorten the
    average search: "a simple 'move to front' heuristic can be very
    effective" (winners migrate toward the head) and "ordering the clients
    by decreasing ticket counts can substantially reduce the average search
    length". Both are available; the [search-length] experiment counts
    the entries each ordering examines per draw ({!comparisons}). *)

type 'a t
type 'a handle

type order =
  | Unordered  (** insertion order, no reordering *)
  | Move_to_front  (** winners move to the head (the prototype's choice) *)
  | By_weight  (** kept sorted by decreasing weight *)

val create : ?order:order -> unit -> 'a t
(** [order] defaults to [Move_to_front]. *)

val add : 'a t -> client:'a -> weight:float -> 'a handle
(** Weights must be nonnegative; zero-weight clients never win. *)

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

val clear : 'a t -> unit
(** Remove every client at once (invalidating their handles), leaving an
    empty structure ready for reuse — O(n), vs O(n²) repeated {!remove}. *)

val set_weight : 'a t -> 'a handle -> float -> unit
val weight : 'a t -> 'a handle -> float
val client : 'a handle -> 'a
val mem : 'a t -> 'a handle -> bool
val total : 'a t -> float
val size : 'a t -> int

val draw : 'a t -> Lotto_prng.Rng.t -> 'a handle option
(** [None] when the lottery is empty or all weights are zero. *)

val draw_client : 'a t -> Lotto_prng.Rng.t -> 'a option

val draw_slot : 'a t -> Lotto_prng.Rng.t -> int
(** Allocation-free draw: the winner's arena slot, or [-1] when the total
    weight is zero (no randomness consumed then). Applies the structure's
    reordering (move-to-front) like {!draw}. The slot is valid until the
    next mutation; resolve it with {!client_at}. *)

val client_at : 'a t -> int -> 'a
(** Resolve a slot returned by {!draw_slot}. *)

val draw_with_value : 'a t -> winning:float -> 'a handle option
(** Deterministic draw for a given winning value in [\[0, total)];
    used by tests to replay Figure 1 exactly. *)

val iter : 'a t -> ('a handle -> unit) -> unit
(** Front-to-back order (reflects move-to-front history). *)

val to_list : 'a t -> ('a * float) list

val comparisons : 'a t -> int
(** Total list entries examined by all draws so far — the paper's "average
    search length" metric for evaluating move-to-front. *)

val reset_comparisons : 'a t -> unit
