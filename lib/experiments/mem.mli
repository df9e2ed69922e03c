(** §6.2 — inverse-lottery memory management.

    The paper proposes (without measuring) choosing a page-revocation victim
    with probability proportional to [(1 - t_i/T)] times the client's share
    of physical memory. This experiment realizes the proposal: three
    clients with a 3:2:1 ticket allocation and identical overcommitted
    working sets run to steady state; under the inverse lottery the
    resident-set split orders by ticket holdings, while ticket-blind global
    LRU and random-victim policies split evenly. *)

type client_row = {
  name : string;
  tickets : int;
  resident : int;
  faults : int;
  fault_rate : float;  (** faults per access *)
}

type policy_result = { policy : string; clients : client_row array }

type t = { results : policy_result array (** inverse, lru, random *) }

val run : ?seed:int -> ?steps:int -> unit -> t
(** 300 frames, 400-page working sets; [steps] defaults to 300_000
    accesses. *)

val print : t -> unit

val inverse_residents : t -> int array
(** Resident counts under the inverse-lottery policy, in 3:2:1 client
    order. *)

val to_csv : t -> string
(** Serialize the result for external plotting. *)
