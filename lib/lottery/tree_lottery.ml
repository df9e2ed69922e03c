type 'a handle = { mutable slot : int; (* -1 while out of the structure *) c : 'a }

(* Slots are unboxed: [weights.(s)] doubles as the occupancy flag with a
   [free_weight] sentinel for vacant slots. [clients] holds each slot's
   client flat, so resolving a drawn slot is one load, and [slots] the
   handle that owns it (for {!mem}, {!iter} and the handle-returning
   draws). Both are filled lazily with the first handle ever inserted,
   [spare], which also overwrites every vacated cell: a removed client is
   never kept reachable by the structure. The free list is an int-array
   stack, so insert/remove churn allocates nothing. *)
let free_weight = -1.

type 'a t = {
  mutable tree : float array; (* 1-based Fenwick array of partial sums *)
  mutable weights : float array; (* per-slot exact weight; free_weight = vacant *)
  mutable clients : 'a array; (* per-slot client; [||] until the first insert *)
  mutable slots : 'a handle array; (* per-slot handle; [||] likewise *)
  mutable spare : 'a handle array; (* [| first handle ever inserted |] *)
  mutable capacity : int; (* power of two *)
  mutable used : int; (* high-water mark of allocated slots *)
  mutable free : int array; (* stack of vacated slots *)
  mutable free_top : int;
  mutable size : int;
  mutable drift_fallbacks : int; (* draws that took the [last_live_slot] scan *)
}

(* The total lives in the Fenwick root: [capacity] is always a power of
   two, so node [capacity] covers the whole range [1..capacity] and
   receives exactly the same [+. delta] sequence a separate accumulator
   would — without the boxed-float store a [mutable total : float] field
   in this mixed record costs on every update. Keeping the hot remove/
   readd/set_weight path allocation-free is what lets a sharded scheduler
   dequeue-on-dispatch every quantum. *)
let[@inline] raw_total t = t.tree.(t.capacity)

let create ?(initial_capacity = 16) () =
  let cap = max 2 initial_capacity in
  (* round up to a power of two for a clean Fenwick descend *)
  let cap =
    let rec up c = if c >= cap then c else up (c * 2) in
    up 2
  in
  {
    tree = Array.make (cap + 1) 0.;
    weights = Array.make cap free_weight;
    clients = [||];
    slots = [||];
    spare = [||];
    capacity = cap;
    used = 0;
    free = Array.make cap 0;
    free_top = 0;
    size = 0;
    drift_fallbacks = 0;
  }

let occupied t s = t.weights.(s) >= 0.

(* [@inline] keeps [delta] unboxed: every caller computes it fresh. *)
let[@inline] bump t slot delta =
  (* Standard Fenwick point update: add delta to slot (0-based) upward. *)
  let i = ref (slot + 1) in
  while !i <= t.capacity do
    t.tree.(!i) <- t.tree.(!i) +. delta;
    i := !i + (!i land - !i)
  done

let rebuild t =
  Array.fill t.tree 0 (t.capacity + 1) 0.;
  for s = 0 to t.used - 1 do
    if t.weights.(s) > 0. then begin
      let w = t.weights.(s) in
      let i = ref (s + 1) in
      while !i <= t.capacity do
        t.tree.(!i) <- t.tree.(!i) +. w;
        i := !i + (!i land - !i)
      done
    end
  done

let grow t =
  let cap = t.capacity * 2 in
  let weights = Array.make cap free_weight in
  Array.blit t.weights 0 weights 0 t.capacity;
  if Array.length t.spare > 0 then begin
    let h = t.spare.(0) in
    let clients = Array.make cap h.c in
    let slots = Array.make cap h in
    Array.blit t.clients 0 clients 0 t.capacity;
    Array.blit t.slots 0 slots 0 t.capacity;
    t.clients <- clients;
    t.slots <- slots
  end;
  t.weights <- weights;
  t.capacity <- cap;
  t.tree <- Array.make (cap + 1) 0.;
  rebuild t

let push_free t s =
  if t.free_top = Array.length t.free then begin
    let free = Array.make (2 * Array.length t.free) 0 in
    Array.blit t.free 0 free 0 t.free_top;
    t.free <- free
  end;
  t.free.(t.free_top) <- s;
  t.free_top <- t.free_top + 1

let handle client = { slot = -1; c = client }

(* Drop slot [s]'s references to its client: both cells fall back to the
   spare, so the structure keeps no departed client reachable. *)
let[@inline] vacate t s =
  let h = t.spare.(0) in
  t.clients.(s) <- h.c;
  t.slots.(s) <- h

let remove t h =
  if h.slot >= 0 then begin
    let s = h.slot in
    bump t s (-.t.weights.(s));
    t.weights.(s) <- free_weight;
    vacate t s;
    push_free t s;
    t.size <- t.size - 1;
    h.slot <- -1
  end

(* Insert a handle that is out of every structure — fresh from {!handle}
   or invalidated by {!remove} — reusing the record itself: callers
   holding it keep it valid across a remove/readd pair, so a migration
   between two structures costs zero minor words. *)
let[@inline] readd t h ~weight =
  if weight < 0. then invalid_arg "Tree_lottery.readd: negative weight";
  if h.slot >= 0 then invalid_arg "Tree_lottery.readd: handle still live";
  let slot =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      if t.used = t.capacity then grow t;
      let s = t.used in
      t.used <- t.used + 1;
      s
    end
  in
  h.slot <- slot;
  if Array.length t.spare = 0 then begin
    t.spare <- [| h |];
    t.clients <- Array.make t.capacity h.c;
    t.slots <- Array.make t.capacity h
  end;
  t.clients.(slot) <- h.c;
  t.slots.(slot) <- h;
  t.weights.(slot) <- weight;
  bump t slot weight;
  t.size <- t.size + 1

let add t ~client ~weight =
  if weight < 0. then invalid_arg "Tree_lottery.add: negative weight";
  let h = handle client in
  readd t h ~weight;
  h

let[@inline] set_weight t h weight =
  if weight < 0. then invalid_arg "Tree_lottery.set_weight: negative weight";
  if h.slot < 0 then invalid_arg "Tree_lottery.set_weight: removed handle";
  bump t h.slot (weight -. t.weights.(h.slot));
  t.weights.(h.slot) <- weight

(* The [_at] forms take the weight from a caller's flat array, so it is
   never boxed on the way in, inlined or not. *)
let readd_at t h src i = readd t h ~weight:src.(i)
let set_weight_at t h src i = set_weight t h src.(i)

let clear t =
  for s = 0 to t.used - 1 do
    if occupied t s then begin
      t.slots.(s).slot <- -1;
      vacate t s
    end;
    t.weights.(s) <- free_weight
  done;
  Array.fill t.tree 0 (t.capacity + 1) 0.;
  t.used <- 0;
  t.free_top <- 0;
  t.size <- 0

let weight t h = if h.slot < 0 then 0. else t.weights.(h.slot)
let client h = h.c
let mem t h =
  h.slot >= 0
  && h.slot < Array.length t.slots
  && t.weights.(h.slot) >= 0.
  && t.slots.(h.slot) == h
let total t = max (raw_total t) 0.

let total_at t dst j =
  let v = raw_total t in
  dst.(j) <- (if v > 0. then v else 0.)
let size t = t.size

let[@inline] descend t winning =
  (* Fenwick tree search: find the lowest slot whose prefix sum exceeds the
     winning value. *)
  let pos = ref 0 in
  let rest = ref winning in
  let step = ref t.capacity in
  while !step > 0 do
    let next = !pos + !step in
    if next <= t.capacity && t.tree.(next) <= !rest then begin
      rest := !rest -. t.tree.(next);
      pos := next
    end;
    step := !step / 2
  done;
  !pos (* 0-based slot of the winner *)

let last_live_slot t =
  let found = ref (-1) in
  for s = 0 to t.used - 1 do
    if t.weights.(s) > 0. then found := s
  done;
  !found

(* [@inline] keeps the freshly computed winning value in a register on the
   draw path: a non-inlined call would box the float argument. *)
let[@inline] slot_for_value t winning =
  let s = descend t winning in
  if s < t.capacity && t.weights.(s) > 0. then s
  else begin
    (* float drift pushed the winning value past the true total *)
    t.drift_fallbacks <- t.drift_fallbacks + 1;
    last_live_slot t
  end

let drift_fallbacks t = t.drift_fallbacks

let draw_with_value t ~winning =
  if winning < 0. then invalid_arg "Tree_lottery.draw_with_value: negative";
  if raw_total t <= 0. then None
  else
    match slot_for_value t winning with -1 -> None | s -> Some t.slots.(s)

let draw_slot t rng =
  if raw_total t <= 0. then -1
  else begin
    let u =
      float_of_int (Lotto_prng.Rng.bits53 rng) /. float_of_int (1 lsl 53)
    in
    slot_for_value t (u *. raw_total t)
  end

let client_at t s = t.clients.(s)

let draw t rng =
  let s = draw_slot t rng in
  if s < 0 then None else Some t.slots.(s)

let draw_client t rng =
  let s = draw_slot t rng in
  if s < 0 then None else Some t.clients.(s)

let iter t f =
  for s = 0 to t.used - 1 do
    if occupied t s then f t.slots.(s)
  done
