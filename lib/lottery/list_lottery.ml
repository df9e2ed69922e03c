type 'a handle = { mutable slot : int; (* -1 while out of the structure *) c : 'a }

type order = Unordered | Move_to_front | By_weight

(* Entries live in a slot arena (parallel arrays indexed by an int slot,
   vacated slots recycled through an int-array stack) and the draw order is
   an intrusive doubly-linked list threaded through [prevs]/[nexts], so
   remove and move-to-front are O(1) instead of the historical
   List.filter. [ws.(s)] doubles as the occupancy flag with a negative
   sentinel for vacant slots. [cs] holds each slot's client flat, so
   resolving a drawn slot is one load, and [hs] the handle that owns it;
   both are filled lazily with the first handle ever inserted, [spare],
   which also overwrites every vacated cell, so a removed client is never
   kept reachable by the structure. Scan order, float accumulation order,
   and the comparisons counter are unchanged from the list
   representation. *)
let free_weight = -1.

type 'a t = {
  order : order;
  mutable ws : float array; (* per-slot weight; free_weight = vacant *)
  mutable cs : 'a array; (* per-slot client; [||] until the first insert *)
  mutable hs : 'a handle array; (* per-slot handle; [||] likewise *)
  mutable spare : 'a handle array; (* [| first handle ever inserted |] *)
  mutable prevs : int array; (* draw-order links; -1 = none *)
  mutable nexts : int array;
  mutable head : int; (* front = most recent winners under mtf; -1 = empty *)
  mutable tail : int;
  mutable capacity : int;
  mutable used : int; (* high-water mark of allocated slots *)
  mutable free : int array; (* stack of vacated slots *)
  mutable free_top : int;
  total : float array;
      (* one cell: the running weight sum. A float field of this mixed
         record would be boxed on every write; the flat cell is not *)
  mutable size : int;
  mutable comparisons : int;
  mutable mutations : int; (* triggers periodic total recomputation *)
}

let create ?(order = Move_to_front) () =
  {
    order;
    ws = Array.make 16 free_weight;
    cs = [||];
    hs = [||];
    spare = [||];
    prevs = Array.make 16 (-1);
    nexts = Array.make 16 (-1);
    head = -1;
    tail = -1;
    capacity = 16;
    used = 0;
    free = Array.make 16 0;
    free_top = 0;
    total = [| 0. |];
    size = 0;
    comparisons = 0;
    mutations = 0;
  }

let grow t =
  let cap = t.capacity * 2 in
  let ws = Array.make cap free_weight in
  let prevs = Array.make cap (-1) in
  let nexts = Array.make cap (-1) in
  Array.blit t.ws 0 ws 0 t.capacity;
  Array.blit t.prevs 0 prevs 0 t.capacity;
  Array.blit t.nexts 0 nexts 0 t.capacity;
  if Array.length t.spare > 0 then begin
    let h = t.spare.(0) in
    let cs = Array.make cap h.c in
    let hs = Array.make cap h in
    Array.blit t.cs 0 cs 0 t.capacity;
    Array.blit t.hs 0 hs 0 t.capacity;
    t.cs <- cs;
    t.hs <- hs
  end;
  t.ws <- ws;
  t.prevs <- prevs;
  t.nexts <- nexts;
  t.capacity <- cap

let alloc_slot t =
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

let push_free t s =
  if t.free_top = Array.length t.free then begin
    let free = Array.make (2 * Array.length t.free) 0 in
    Array.blit t.free 0 free 0 t.free_top;
    t.free <- free
  end;
  t.free.(t.free_top) <- s;
  t.free_top <- t.free_top + 1

let link_front t s =
  t.prevs.(s) <- -1;
  t.nexts.(s) <- t.head;
  if t.head >= 0 then t.prevs.(t.head) <- s else t.tail <- s;
  t.head <- s

let unlink t s =
  let p = t.prevs.(s) and n = t.nexts.(s) in
  if p >= 0 then t.nexts.(p) <- n else t.head <- n;
  if n >= 0 then t.prevs.(n) <- p else t.tail <- p;
  t.prevs.(s) <- -1;
  t.nexts.(s) <- -1

let resort t =
  (* Collect the current order, stable-sort by decreasing weight, relink. *)
  let slots = Array.make t.size 0 in
  let i = ref 0 in
  let s = ref t.head in
  while !s >= 0 do
    slots.(!i) <- !s;
    incr i;
    s := t.nexts.(!s)
  done;
  let boxed = Array.to_list slots in
  let sorted = List.stable_sort (fun a b -> compare t.ws.(b) t.ws.(a)) boxed in
  t.head <- -1;
  t.tail <- -1;
  List.iter
    (fun s ->
      (* append at the tail to preserve sorted order front-to-back *)
      t.prevs.(s) <- t.tail;
      t.nexts.(s) <- -1;
      if t.tail >= 0 then t.nexts.(t.tail) <- s else t.head <- s;
      t.tail <- s)
    sorted

let refresh_total t =
  (* Incremental float updates drift; re-sum periodically so long-running
     simulations keep exact draw bounds. *)
  t.mutations <- t.mutations + 1;
  if t.mutations land 4095 = 0 then begin
    let acc = ref 0. in
    let s = ref t.head in
    while !s >= 0 do
      acc := !acc +. t.ws.(!s);
      s := t.nexts.(!s)
    done;
    t.total.(0) <- !acc
  end

let handle client = { slot = -1; c = client }

(* Drop slot [s]'s references to its client (see [spare]). *)
let[@inline] vacate t s =
  let h = t.spare.(0) in
  t.cs.(s) <- h.c;
  t.hs.(s) <- h

let remove t h =
  if h.slot >= 0 then begin
    let s = h.slot in
    unlink t s;
    t.total.(0) <- t.total.(0) -. t.ws.(s);
    t.ws.(s) <- free_weight;
    vacate t s;
    push_free t s;
    t.size <- t.size - 1;
    h.slot <- -1;
    refresh_total t
  end

(* Insert a handle that is out of every structure — fresh from {!handle}
   or invalidated by {!remove} — reusing the record: the node is linked
   at the front exactly as every insertion is (the migration primitive;
   see {!Tree_lottery.readd}). [readd] and [set_weight] are [@inline]:
   {!Draw.readd_at} and {!Draw.set_weight_at} read the weight out of the
   caller's flat array, and an optimized build inlines these bodies
   there, so the weight is never boxed on its way in. *)
let[@inline] readd t h ~weight =
  if weight < 0. then invalid_arg "List_lottery.readd: negative weight";
  if h.slot >= 0 then invalid_arg "List_lottery.readd: handle still live";
  let slot = alloc_slot t in
  h.slot <- slot;
  if Array.length t.spare = 0 then begin
    t.spare <- [| h |];
    t.cs <- Array.make t.capacity h.c;
    t.hs <- Array.make t.capacity h
  end;
  t.cs.(slot) <- h.c;
  t.hs.(slot) <- h;
  t.ws.(slot) <- weight;
  link_front t slot;
  t.total.(0) <- t.total.(0) +. weight;
  t.size <- t.size + 1;
  if t.order = By_weight then resort t;
  refresh_total t

let add t ~client ~weight =
  if weight < 0. then invalid_arg "List_lottery.add: negative weight";
  let h = handle client in
  readd t h ~weight;
  h

let[@inline] set_weight t h weight =
  if weight < 0. then invalid_arg "List_lottery.set_weight: negative weight";
  if h.slot < 0 then invalid_arg "List_lottery.set_weight: removed handle";
  t.total.(0) <- t.total.(0) -. t.ws.(h.slot) +. weight;
  t.ws.(h.slot) <- weight;
  if t.order = By_weight then resort t;
  refresh_total t

let clear t =
  let s = ref t.head in
  while !s >= 0 do
    let n = t.nexts.(!s) in
    t.hs.(!s).slot <- -1;
    vacate t !s;
    t.ws.(!s) <- free_weight;
    t.prevs.(!s) <- -1;
    t.nexts.(!s) <- -1;
    s := n
  done;
  t.head <- -1;
  t.tail <- -1;
  t.used <- 0;
  t.free_top <- 0;
  t.total.(0) <- 0.;
  t.size <- 0

let weight t h = if h.slot < 0 then 0. else t.ws.(h.slot)
let client h = h.c
let mem t h =
  h.slot >= 0
  && h.slot < Array.length t.hs
  && t.ws.(h.slot) >= 0.
  && t.hs.(h.slot) == h
let total t = max t.total.(0) 0.
let size t = t.size

let move_to_front t s =
  if t.head <> s then begin
    unlink t s;
    link_front t s
  end

(* [@inline] (here and on [slot_for_value]) keeps the freshly computed
   winning value in a register on the draw path: a non-inlined call would
   box the float argument. *)
let[@inline] scan t winning =
  (* Accumulate the running ticket sum until it exceeds the winning value
     (Figure 1). Float drift can leave [winning] beyond the actual sum; the
     last positive-weight entry wins in that case. *)
  let acc = ref 0. in
  let last = ref (-1) in
  let s = ref t.head in
  let found = ref (-1) in
  while !found < 0 && !s >= 0 do
    t.comparisons <- t.comparisons + 1;
    let w = t.ws.(!s) in
    acc := !acc +. w;
    if w > 0. then begin
      last := !s;
      if !acc > winning then found := !s
    end;
    s := t.nexts.(!s)
  done;
  if !found >= 0 then !found else !last

(* Winner's slot for a winning value, applying the structure's reordering;
   -1 when nothing can win. *)
let[@inline] slot_for_value t winning =
  match scan t winning with
  | -1 -> -1
  | s ->
      if t.order = Move_to_front then move_to_front t s;
      s

let draw_with_value t ~winning =
  if winning < 0. then invalid_arg "List_lottery.draw_with_value: negative";
  match slot_for_value t winning with -1 -> None | s -> Some t.hs.(s)

let draw_slot t rng =
  if t.total.(0) <= 0. then -1
  else begin
    let u =
      float_of_int (Lotto_prng.Rng.bits53 rng) /. float_of_int (1 lsl 53)
    in
    slot_for_value t (u *. t.total.(0))
  end

let client_at t s = t.cs.(s)

let draw t rng =
  let s = draw_slot t rng in
  if s < 0 then None else Some t.hs.(s)

let draw_client t rng =
  let s = draw_slot t rng in
  if s < 0 then None else Some t.cs.(s)

let iter t f =
  let s = ref t.head in
  while !s >= 0 do
    let n = t.nexts.(!s) in
    f t.hs.(!s);
    s := n
  done

let to_list t =
  let acc = ref [] in
  let s = ref t.tail in
  while !s >= 0 do
    acc := (t.cs.(!s), t.ws.(!s)) :: !acc;
    s := t.prevs.(!s)
  done;
  !acc

let comparisons t = t.comparisons
let reset_comparisons t = t.comparisons <- 0
