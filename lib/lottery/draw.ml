module type S = sig
  type 'a t
  type 'a handle

  val create : unit -> 'a t
  val add : 'a t -> client:'a -> weight:float -> 'a handle
  val remove : 'a t -> 'a handle -> unit
  val readd : 'a t -> 'a handle -> weight:float -> unit
  val mem : 'a t -> 'a handle -> bool
  val clear : 'a t -> unit
  val set_weight : 'a t -> 'a handle -> float -> unit
  val weight : 'a t -> 'a handle -> float
  val client : 'a handle -> 'a
  val total : 'a t -> float
  val size : 'a t -> int
  val draw : 'a t -> Lotto_prng.Rng.t -> 'a handle option
  val draw_client : 'a t -> Lotto_prng.Rng.t -> 'a option
  val draw_slot : 'a t -> Lotto_prng.Rng.t -> int
  val client_at : 'a t -> int -> 'a
  val draw_k : 'a t -> Lotto_prng.Rng.t -> k:int -> 'a array -> int
  val draw_with_value : 'a t -> winning:float -> 'a handle option
  val iter : 'a t -> ('a handle -> unit) -> unit
end

type mode = List | Tree | Distributed of int | Cumul | Alias

module List_backend = struct
  include List_lottery

  let create () = create ()
end

module Tree_backend = struct
  include Tree_lottery

  let create () = create ()
end

module Cumul_backend = struct
  include Cumul_lottery

  let create () = create ()
end

module Alias_backend = struct
  include Alias_lottery

  let create () = create ()
end

let backend : mode -> (module S) = function
  | List -> (module List_backend)
  | Tree -> (module Tree_backend)
  | Cumul -> (module Cumul_backend)
  | Alias -> (module Alias_backend)
  | Distributed n ->
      (module struct
        include Distributed_lottery

        let create () = Distributed_lottery.create ~nodes:n ()
      end)

(* --- runtime-dispatched wrapper ---------------------------------------- *)

type 'a t =
  | L of 'a List_lottery.t
  | T of 'a Tree_lottery.t
  | D of 'a Distributed_lottery.t
  | C of 'a Cumul_lottery.t
  | A of 'a Alias_lottery.t

type 'a handle =
  | Lh of 'a List_lottery.handle
  | Th of 'a Tree_lottery.handle
  | Dh of 'a Distributed_lottery.handle
  | Ch of 'a Cumul_lottery.handle
  | Ah of 'a Alias_lottery.handle

let foreign () = invalid_arg "Draw: handle from a different backend"

let of_mode = function
  | List -> L (List_lottery.create ())
  | Tree -> T (Tree_lottery.create ())
  | Distributed nodes -> D (Distributed_lottery.create ~nodes ())
  | Cumul -> C (Cumul_lottery.create ())
  | Alias -> A (Alias_lottery.create ())

let of_list l = L l
let of_tree l = T l
let of_distributed l = D l
let of_cumul l = C l
let of_alias l = A l

let mode = function
  | L _ -> List
  | T _ -> Tree
  | D d -> Distributed (Distributed_lottery.nodes d)
  | C _ -> Cumul
  | A _ -> Alias

let add t ~client ~weight =
  match t with
  | L l -> Lh (List_lottery.add l ~client ~weight)
  | T l -> Th (Tree_lottery.add l ~client ~weight)
  | D l -> Dh (Distributed_lottery.add l ~client ~weight)
  | C l -> Ch (Cumul_lottery.add l ~client ~weight)
  | A l -> Ah (Alias_lottery.add l ~client ~weight)

let remove t h =
  match (t, h) with
  | L l, Lh h -> List_lottery.remove l h
  | T l, Th h -> Tree_lottery.remove l h
  | D l, Dh h -> Distributed_lottery.remove l h
  | C l, Ch h -> Cumul_lottery.remove l h
  | A l, Ah h -> Alias_lottery.remove l h
  | _ -> foreign ()

(* Migration hot path: the target structure may be a different instance
   than the one the handle was removed from, but must be the same backend —
   re-wrapping would allocate, and a foreign pair is a caller bug anyway. *)
let readd t h ~weight =
  match (t, h) with
  | L l, Lh h -> List_lottery.readd l h ~weight
  | T l, Th h -> Tree_lottery.readd l h ~weight
  | D l, Dh h -> Distributed_lottery.readd l h ~weight
  | C l, Ch h -> Cumul_lottery.readd l h ~weight
  | A l, Ah h -> Alias_lottery.readd l h ~weight
  | _ -> foreign ()

let readd_at t h src i =
  match (t, h) with
  | T l, Th h -> Tree_lottery.readd_at l h src i
  | L l, Lh h -> List_lottery.readd l h ~weight:src.(i)
  | D l, Dh h -> Distributed_lottery.readd l h ~weight:src.(i)
  | C l, Ch h -> Cumul_lottery.readd l h ~weight:src.(i)
  | A l, Ah h -> Alias_lottery.readd l h ~weight:src.(i)
  | _ -> foreign ()

let mem t h =
  match (t, h) with
  | L l, Lh h -> List_lottery.mem l h
  | T l, Th h -> Tree_lottery.mem l h
  | D l, Dh h -> Distributed_lottery.mem l h
  | C l, Ch h -> Cumul_lottery.mem l h
  | A l, Ah h -> Alias_lottery.mem l h
  | _ -> foreign ()

let clear = function
  | L l -> List_lottery.clear l
  | T l -> Tree_lottery.clear l
  | D l -> Distributed_lottery.clear l
  | C l -> Cumul_lottery.clear l
  | A l -> Alias_lottery.clear l

let set_weight t h w =
  match (t, h) with
  | L l, Lh h -> List_lottery.set_weight l h w
  | T l, Th h -> Tree_lottery.set_weight l h w
  | D l, Dh h -> Distributed_lottery.set_weight l h w
  | C l, Ch h -> Cumul_lottery.set_weight l h w
  | A l, Ah h -> Alias_lottery.set_weight l h w
  | _ -> foreign ()

let set_weight_at t h src i =
  match (t, h) with
  | T l, Th h -> Tree_lottery.set_weight_at l h src i
  | L l, Lh h -> List_lottery.set_weight l h src.(i)
  | D l, Dh h -> Distributed_lottery.set_weight l h src.(i)
  | C l, Ch h -> Cumul_lottery.set_weight l h src.(i)
  | A l, Ah h -> Alias_lottery.set_weight l h src.(i)
  | _ -> foreign ()

let weight t h =
  match (t, h) with
  | L l, Lh h -> List_lottery.weight l h
  | T l, Th h -> Tree_lottery.weight l h
  | D l, Dh h -> Distributed_lottery.weight l h
  | C l, Ch h -> Cumul_lottery.weight l h
  | A l, Ah h -> Alias_lottery.weight l h
  | _ -> foreign ()

let client = function
  | Lh h -> List_lottery.client h
  | Th h -> Tree_lottery.client h
  | Dh h -> Distributed_lottery.client h
  | Ch h -> Cumul_lottery.client h
  | Ah h -> Alias_lottery.client h

let total = function
  | L l -> List_lottery.total l
  | T l -> Tree_lottery.total l
  | D l -> Distributed_lottery.total l
  | C l -> Cumul_lottery.total l
  | A l -> Alias_lottery.total l

let size = function
  | L l -> List_lottery.size l
  | T l -> Tree_lottery.size l
  | D l -> Distributed_lottery.size l
  | C l -> Cumul_lottery.size l
  | A l -> Alias_lottery.size l

let draw t rng =
  match t with
  | L l -> Option.map (fun h -> Lh h) (List_lottery.draw l rng)
  | T l -> Option.map (fun h -> Th h) (Tree_lottery.draw l rng)
  | D l -> Option.map (fun h -> Dh h) (Distributed_lottery.draw l rng)
  | C l -> Option.map (fun h -> Ch h) (Cumul_lottery.draw l rng)
  | A l -> Option.map (fun h -> Ah h) (Alias_lottery.draw l rng)

let draw_client t rng = Option.map client (draw t rng)

(* The allocation-free draw path: one dispatch, an int out, no options. *)
let draw_slot t rng =
  match t with
  | L l -> List_lottery.draw_slot l rng
  | T l -> Tree_lottery.draw_slot l rng
  | D l -> Distributed_lottery.draw_slot l rng
  | C l -> Cumul_lottery.draw_slot l rng
  | A l -> Alias_lottery.draw_slot l rng

let client_at t s =
  match t with
  | L l -> List_lottery.client_at l s
  | T l -> Tree_lottery.client_at l s
  | D l -> Distributed_lottery.client_at l s
  | C l -> Cumul_lottery.client_at l s
  | A l -> Alias_lottery.client_at l s

let draw_k t rng ~k out =
  match t with
  | L l -> List_lottery.draw_k l rng ~k out
  | T l -> Tree_lottery.draw_k l rng ~k out
  | D l -> Distributed_lottery.draw_k l rng ~k out
  | C l -> Cumul_lottery.draw_k l rng ~k out
  | A l -> Alias_lottery.draw_k l rng ~k out

let draw_with_value t ~winning =
  match t with
  | L l -> Option.map (fun h -> Lh h) (List_lottery.draw_with_value l ~winning)
  | T l -> Option.map (fun h -> Th h) (Tree_lottery.draw_with_value l ~winning)
  | D l -> Option.map (fun h -> Dh h) (Distributed_lottery.draw_with_value l ~winning)
  | C l -> Option.map (fun h -> Ch h) (Cumul_lottery.draw_with_value l ~winning)
  | A l -> Option.map (fun h -> Ah h) (Alias_lottery.draw_with_value l ~winning)

let iter t f =
  match t with
  | L l -> List_lottery.iter l (fun h -> f (Lh h))
  | T l -> Tree_lottery.iter l (fun h -> f (Th h))
  | D l -> Distributed_lottery.iter l (fun h -> f (Dh h))
  | C l -> Cumul_lottery.iter l (fun h -> f (Ch h))
  | A l -> Alias_lottery.iter l (fun h -> f (Ah h))

let drift_fallbacks = function
  | T l -> Tree_lottery.drift_fallbacks l
  | L _ | D _ | C _ | A _ -> 0

let comparisons = function
  | L l -> Some (List_lottery.comparisons l)
  | T _ | D _ | C _ | A _ -> None
