(** Array-based binary min-heap keyed by integer priority, stable for equal
    keys (insertion order wins). Used as the kernel's timer queue. Keys,
    insertion numbers and values live in three flat arrays, so once the
    arrays have grown no operation allocates. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills every value cell that holds no entry (vacant capacity
    and the cells entries leave), so the heap keeps no dropped value
    reachable. *)

val push : 'a t -> key:int -> 'a -> unit

val min_key : 'a t -> int
(** Key of the minimum entry. The heap must be non-empty (check
    {!is_empty} first). *)

val min_elt : 'a t -> 'a
(** Value of the minimum entry. The heap must be non-empty. *)

val drop_min : 'a t -> unit
(** Remove the minimum entry. The heap must be non-empty. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val iter : 'a t -> (key:int -> 'a -> unit) -> unit
(** Visit every entry in unspecified (heap-internal) order. Used by
    auditors that need to inspect the pending-timer population without
    disturbing it. *)
