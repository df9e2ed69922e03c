type mode = List | Tree
type 'a t = L of 'a List_lottery.t | T of 'a Tree_lottery.t
type 'a handle = Lh of 'a List_lottery.handle | Th of 'a Tree_lottery.handle

let foreign () = invalid_arg "Draw: handle from a different backend"

let of_mode = function
  | List -> L (List_lottery.create ())
  | Tree -> T (Tree_lottery.create ())

let of_list l = L l

let add t ~client ~weight =
  match t with
  | L l -> Lh (List_lottery.add l ~client ~weight)
  | T l -> Th (Tree_lottery.add l ~client ~weight)

let handle t client =
  match t with
  | L _ -> Lh (List_lottery.handle client)
  | T _ -> Th (Tree_lottery.handle client)

let remove t h =
  match (t, h) with
  | L l, Lh h -> List_lottery.remove l h
  | T l, Th h -> Tree_lottery.remove l h
  | _ -> foreign ()

(* Migration hot path: the target structure may be a different instance
   than the one the handle was removed from, but must be the same backend —
   re-wrapping would allocate, and a foreign pair is a caller bug anyway. *)
let readd t h ~weight =
  match (t, h) with
  | L l, Lh h -> List_lottery.readd l h ~weight
  | T l, Th h -> Tree_lottery.readd l h ~weight
  | _ -> foreign ()

let readd_at t h src i =
  match (t, h) with
  | T l, Th h -> Tree_lottery.readd_at l h src i
  | L l, Lh h -> List_lottery.readd l h ~weight:src.(i)
  | _ -> foreign ()

let mem t h =
  match (t, h) with
  | L l, Lh h -> List_lottery.mem l h
  | T l, Th h -> Tree_lottery.mem l h
  | _ -> foreign ()

let clear = function L l -> List_lottery.clear l | T l -> Tree_lottery.clear l

let set_weight t h w =
  match (t, h) with
  | L l, Lh h -> List_lottery.set_weight l h w
  | T l, Th h -> Tree_lottery.set_weight l h w
  | _ -> foreign ()

let set_weight_at t h src i =
  match (t, h) with
  | T l, Th h -> Tree_lottery.set_weight_at l h src i
  | L l, Lh h -> List_lottery.set_weight l h src.(i)
  | _ -> foreign ()

let weight t h =
  match (t, h) with
  | L l, Lh h -> List_lottery.weight l h
  | T l, Th h -> Tree_lottery.weight l h
  | _ -> foreign ()

let client = function Lh h -> List_lottery.client h | Th h -> Tree_lottery.client h
let total = function L l -> List_lottery.total l | T l -> Tree_lottery.total l

let total_at t dst j =
  match t with
  | L l -> List_lottery.total_at l dst j
  | T l -> Tree_lottery.total_at l dst j
let size = function L l -> List_lottery.size l | T l -> Tree_lottery.size l

let draw t rng =
  match t with
  | L l -> Option.map (fun h -> Lh h) (List_lottery.draw l rng)
  | T l -> Option.map (fun h -> Th h) (Tree_lottery.draw l rng)

let draw_client t rng = Option.map client (draw t rng)

(* The allocation-free draw path: one dispatch, an int out, no options. *)
let draw_slot t rng =
  match t with
  | L l -> List_lottery.draw_slot l rng
  | T l -> Tree_lottery.draw_slot l rng

let client_at t s =
  match t with
  | L l -> List_lottery.client_at l s
  | T l -> Tree_lottery.client_at l s

let draw_k t rng ~k out =
  let n = min k (Array.length out) in
  let i = ref 0 in
  let live = ref true in
  while !live && !i < n do
    let s = draw_slot t rng in
    if s < 0 then live := false
    else begin
      out.(!i) <- client_at t s;
      incr i
    end
  done;
  !i

let draw_with_value t ~winning =
  match t with
  | L l -> Option.map (fun h -> Lh h) (List_lottery.draw_with_value l ~winning)
  | T l -> Option.map (fun h -> Th h) (Tree_lottery.draw_with_value l ~winning)

let iter t f =
  match t with
  | L l -> List_lottery.iter l (fun h -> f (Lh h))
  | T l -> Tree_lottery.iter l (fun h -> f (Th h))

let drift_fallbacks = function T l -> Tree_lottery.drift_fallbacks l | L _ -> 0
let comparisons = function L l -> Some (List_lottery.comparisons l) | T _ -> None
