(** FIFO wait queue for mutex, condition and semaphore waiters.

    A two-list queue: pushes cons onto a reversed back list, FIFO pops take
    from the front list, and the back list is reversed into the front only
    when the front runs dry — so {!push} and {!pop} are O(1) amortized, and
    each element is copied at most once over its stay however long the
    queue is. Removal by identity, rotation and listing are O(n) and copy;
    the kernel uses them only on rare paths (kill, a [Lottery_wake] pick,
    fault-injected perturbation, the invariant audit). *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool

val length : 'a t -> int
(** O(1). *)

val push : 'a t -> 'a -> unit
(** Append at the tail (arrival order): one cons. *)

val pop : 'a t -> 'a
(** Remove and return the head — the longest waiter. O(1) amortized.
    Raises [Invalid_argument] when empty. *)

val remove : 'a t -> 'a -> unit
(** Remove the first element physically equal to the given one; the rest
    keep their order. A no-op when absent. O(n). *)

val rotate : 'a t -> unit
(** Move the head to the tail ([x :: rest] becomes [rest @ [x]]); a no-op
    when empty. *)

val to_list : 'a t -> 'a list
(** Arrival order, head first. O(n), allocates the list. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Arrival order, head first. O(n); copies the back list when it is
    non-empty. *)

val count : ('a -> bool) -> 'a t -> int
(** Number of elements satisfying the predicate. Allocation-free. *)
