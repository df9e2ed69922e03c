exception Cycle of string
exception Duplicate_name of string
exception In_use of string

module Slots = Lotto_arena.Slots

(* A ticket record is a handle: what never changes about the ticket, and
   its arena slot. Its amount, flags and attachment live in the system's
   slot tables (see [system]), like a currency's active amount, cache flag
   and backing and live heads, so the block/wake path reads no ticket
   record per sibling. *)
type ticket = {
  tid : int;  (** unique forever; never recycled *)
  mutable tkslot : int;
      (** dense arena slot while live; once destroyed, [-1 - a], where [a]
          is the face amount the ticket was destroyed with: its slot's
          entries are reset for the next occupant, and reads of a destroyed
          ticket keep their answers *)
  denom : currency;
}

and currency = {
  cid : int;  (** unique forever; never recycled *)
  mutable cslot : int;
      (** dense arena slot; [-1] once removed, which is how liveness is
          read. Consumers (the scheduler)
          index per-currency state arrays by it, guarding against recycling
          with a physical-equality check on the stored currency. *)
  cname : string;
  mutable visit : int;
      (* the system's [stamp] of the last cycle check that reached it *)
  mutable issued : int;
      (* the head of its issued list (see [i_prev]), which no hot path
         reads *)
  (* The currency's watches, read by a flip: the first ([sink] is
     [no_sink] for none), any further ones (rare) in [more]. *)
  mutable sink : queue;
  mutable tag : int;
  mutable more : (queue * int) list;
}

and system = {
  mutable next_id : int;
  base_currency : currency;
  by_name : (string, currency) Hashtbl.t;
  (* Currency arena: [cur_slots] tracks liveness/creation order, [cur_tab]
     maps slot -> record. *)
  cur_slots : Slots.t;
  mutable cur_tab : currency array;
  (* A currency's mutable state, by currency slot. [cu] holds three ints
     per slot ({!cu_width}): its active amount (the sum of its active
     issued tickets' amounts) and the heads of its backing and live
     lists. [c_bits] has a byte per slot, nonzero while its [vals]/[units]
     entries are current (see [ensure]). *)
  mutable cu : int array;
  mutable c_bits : Bytes.t;
  (* Ticket arena, with a ticket's mutable state by ticket slot. [tk] holds
     three ints per slot ({!tk_width}): its face amount, its
     denomination's slot (the flat form of the record's [denom]) and the
     slot of the currency it backs ([-1] for none). [t_flags] has a byte
     per slot ([active_bit], [held_bit]). A released slot's entries are
     reset: amount and flags 0, [-1] elsewhere. *)
  tk_slots : Slots.t;
  mutable tk_tab : ticket array;
  mutable tk : int array;
  mutable t_flags : Bytes.t;
  (* The edge lists, threaded through arrays indexed by ticket slot. A
     ticket sits in its denomination's issued list ([i_prev]/[i_next]) for
     its whole life and in at most one backing list ([b_prev]/[b_next],
     while it backs a currency), so one slot carries both link pairs. A
     list's head is its most recently linked ticket, so iteration order is
     the historical most-recent-first list order, and unlinking is O(1).
     [-1] terminates. *)
  mutable i_prev : int array;
  mutable i_next : int array;
  mutable b_prev : int array;
  mutable b_next : int array;
  (* Live lists: each non-base currency's active issued tickets that back
     a currency, in issued-list order (most recent first), threaded one
     way through [l_next] by ticket slot, with heads in [cu] by currency
     slot (see [live_pred]). Invalidation walks only these edges: an inactive
     ticket backs a currency with zero active amount, whose value is 0
     whatever its supports are worth. Base keeps no list (base opacity:
     invalidation never walks it). *)
  mutable l_next : int array;
  mutable edges_walked : int; (* live edges visited by [invalidate] *)
  (* Incremental valuation caches, indexed by currency slot. While a
     currency's [c_bits] byte is set, [vals] has its value (sum of its
     active backing tickets in base units; for base, the active amount) and
     [units] the base units per unit of it. Flat float arrays rather than
     record fields: a revalidation stores two unboxed floats instead of two
     fresh boxes into a (usually major-heap) record, so the block/wake
     fan-out neither allocates nor promotes. Invalidation propagates along
     backing edges to dependent currencies, so a lottery after k mutations
     revalues O(affected) currencies rather than the whole system. *)
  mutable vals : float array;
  mutable units : float array;
  mutable hook_calls : int; (* tags [invalidate] handed to queues *)
  mutable batch : int; (* bumped at the end of every mutation *)
  mutable stamp : int; (* bumped once per cycle check; see [would_cycle] *)
}

(* A consumer's queue of tags, in drain order (see the interface): [push]
   appends in flip order, ignoring a tag already queued; one mutation's run
   of tags is reversed in place once the next mutation's first tag
   arrives, or at [settle]. *)
and queue = {
  mutable tags : int array;
  mutable len : int;
  mutable marks : Bytes.t; (* by tag: nonzero while queued *)
  mutable run : int; (* where the open run starts *)
  mutable run_batch : int; (* its mutation; -1 when none is open *)
}

let new_queue () =
  { tags = [||]; len = 0; marks = Bytes.empty; run = 0; run_batch = -1 }

let no_sink = new_queue ()

(* The base currency is the first slot a fresh arena hands out. *)
let base_slot = 0

(* The interleaved slot tables: a slot's ints sit side by side, so a
   walk that reads several of them per step touches one cache line, not
   one per field. *)
let tk_width = 3
let tk_amount = 0
let tk_denom = 1
let tk_backs = 2
let cu_width = 3
let cu_active = 0
let cu_backing = 1
let cu_live = 2

(* [t_flags] bits. *)
let active_bit = 1
let held_bit = 2

let fresh_id sys =
  let id = sys.next_id in
  sys.next_id <- id + 1;
  id

(* The slot tables grow by half when a new slot falls past their end,
   not to the arena's doubled capacity, so none stands half empty. Every
   table of an arena grows at once, so all have one length. *)
let next_length len = max 16 (len + (len / 2))

let grown a len ~dummy =
  let b = Array.make len dummy in
  Array.blit a 0 b 0 (Array.length a);
  b

let grown_bytes b len =
  let b' = Bytes.make len '\000' in
  Bytes.blit b 0 b' 0 (Bytes.length b);
  b'

let[@inline] t_get sys s f = sys.tk.((s * tk_width) + f)
let[@inline] t_set sys s f v = sys.tk.((s * tk_width) + f) <- v
let[@inline] t_amount sys s = t_get sys s tk_amount
let[@inline] set_t_amount sys s v = t_set sys s tk_amount v
let[@inline] t_denom sys s = t_get sys s tk_denom
let[@inline] set_t_denom sys s v = t_set sys s tk_denom v
let[@inline] t_backs sys s = t_get sys s tk_backs
let[@inline] set_t_backs sys s v = t_set sys s tk_backs v
let[@inline] t_flag sys s bit = Char.code (Bytes.unsafe_get sys.t_flags s) land bit <> 0
let[@inline] is_on sys s = t_flag sys s active_bit
let[@inline] held sys s = t_flag sys s held_bit

let[@inline] set_flag sys s bit on =
  let x = Char.code (Bytes.get sys.t_flags s) in
  Bytes.set sys.t_flags s (Char.unsafe_chr (if on then x lor bit else x land lnot bit))

let[@inline] c_get sys j f = sys.cu.((j * cu_width) + f)
let[@inline] c_set sys j f v = sys.cu.((j * cu_width) + f) <- v
let[@inline] c_active sys j = c_get sys j cu_active
let[@inline] set_c_active sys j v = c_set sys j cu_active v
let[@inline] c_backing sys j = c_get sys j cu_backing
let[@inline] set_c_backing sys j v = c_set sys j cu_backing v
let[@inline] c_live sys j = c_get sys j cu_live
let[@inline] set_c_live sys j v = c_set sys j cu_live v
let[@inline] is_valid sys j = Bytes.unsafe_get sys.c_bits j <> '\000'

(* Room in every currency table for slot [j], whose record is [c]; a new
   table entry reads [-1] until its slot is taken, when its active amount
   becomes 0. *)
let fit_currency_tables sys j c =
  let len = Array.length sys.cur_tab in
  if j >= len then begin
    let len = next_length len in
    sys.cur_tab <- grown sys.cur_tab len ~dummy:c;
    sys.cu <- grown sys.cu (len * cu_width) ~dummy:(-1);
    sys.c_bits <- grown_bytes sys.c_bits len;
    sys.vals <- grown sys.vals len ~dummy:0.;
    sys.units <- grown sys.units len ~dummy:0.
  end;
  sys.cur_tab.(j) <- c;
  set_c_active sys j 0

(* Room in every ticket table for slot [s], whose record is [t]. *)
let fit_ticket_tables sys s t =
  let len = Array.length sys.tk_tab in
  if s >= len then begin
    let len = next_length len in
    sys.tk_tab <- grown sys.tk_tab len ~dummy:t;
    sys.tk <- grown sys.tk (len * tk_width) ~dummy:(-1);
    sys.t_flags <- grown_bytes sys.t_flags len;
    sys.i_prev <- grown sys.i_prev len ~dummy:(-1);
    sys.i_next <- grown sys.i_next len ~dummy:(-1);
    sys.b_prev <- grown sys.b_prev len ~dummy:(-1);
    sys.b_next <- grown sys.b_next len ~dummy:(-1);
    sys.l_next <- grown sys.l_next len ~dummy:(-1)
  end;
  sys.tk_tab.(s) <- t

let create_system () =
  let cur_slots = Slots.create () in
  let slot = Slots.alloc cur_slots in
  assert (slot = base_slot);
  let base_currency =
    {
      cid = 0;
      cslot = base_slot;
      cname = "base";
      visit = 0;
      issued = -1;
      sink = no_sink;
      tag = 0;
      more = [];
    }
  in
  let by_name = Hashtbl.create 16 in
  Hashtbl.replace by_name "base" base_currency;
  let sys =
    {
      next_id = 1;
      base_currency;
      by_name;
      cur_slots;
      cur_tab = [||];
      cu = [||];
      c_bits = Bytes.empty;
      tk_slots = Slots.create ();
      tk_tab = [||];
      tk = [||];
      t_flags = Bytes.empty;
      i_prev = [||];
      i_next = [||];
      b_prev = [||];
      b_next = [||];
      l_next = [||];
      edges_walked = 0;
      vals = [||];
      units = [||];
      hook_calls = 0;
      batch = 0;
      stamp = 0;
    }
  in
  fit_currency_tables sys base_slot base_currency;
  sys.units.(base_slot) <- 1.;
  sys

let base sys = sys.base_currency

(* --- edge lists ---------------------------------------------------------

   Prepends and unlinks on the intrusive lists, by currency slot [c] and
   ticket slot [s]. New edges link at the head, matching the historical
   [t :: list] prepend, so every traversal below visits tickets in the same
   most-recent-first order as the list representation did — load-bearing
   for the float fold in [ensure] and for the order in which cascades and
   invalidation visit edges. *)

let link_issued sys c s =
  sys.i_prev.(s) <- -1;
  sys.i_next.(s) <- c.issued;
  if c.issued >= 0 then sys.i_prev.(c.issued) <- s;
  c.issued <- s

let unlink_issued sys c s =
  let p = sys.i_prev.(s) and n = sys.i_next.(s) in
  if p >= 0 then sys.i_next.(p) <- n else c.issued <- n;
  if n >= 0 then sys.i_prev.(n) <- p;
  sys.i_prev.(s) <- -1;
  sys.i_next.(s) <- -1

let link_backing sys c s =
  let h = c_backing sys c in
  sys.b_prev.(s) <- -1;
  sys.b_next.(s) <- h;
  if h >= 0 then sys.b_prev.(h) <- s;
  set_c_backing sys c s

let unlink_backing sys c s =
  let p = sys.b_prev.(s) and n = sys.b_next.(s) in
  if p >= 0 then sys.b_next.(p) <- n else set_c_backing sys c n;
  if n >= 0 then sys.b_prev.(n) <- p;
  sys.b_prev.(s) <- -1;
  sys.b_next.(s) <- -1

(* The live list keeps issued order, which is decreasing ticket id, and
   is linked one way. [live_pred] finds the live ticket just before slot
   [s] in [c]'s list, linked or not ([-1] when [s] comes first): the
   nearest newer issued ticket that is live. Two walks run in step and the
   first to finish answers: the live list from its head, up to [s] or the
   first older ticket, and the issued list back from [s] to the first live
   ticket. So a link or unlink costs O(newer live tickets), no more than
   an invalidation of the currency walks, and O(1) where most issued
   tickets are live. *)
let live_pred sys c s =
  let id = sys.tk_tab.(s).tid in
  let prev = ref (-1) and a = ref (c_live sys c) and b = ref sys.i_prev.(s) in
  let found = ref (-2) in
  while !found = -2 do
    if !a < 0 || !a = s || sys.tk_tab.(!a).tid < id then found := !prev
    else begin
      prev := !a;
      a := sys.l_next.(!a)
    end;
    if !found = -2 then
      if !b < 0 then found := -1
      else if is_on sys !b && t_backs sys !b >= 0 then found := !b
      else b := sys.i_prev.(!b)
  done;
  !found

let link_live sys c s =
  let p = live_pred sys c s in
  if p >= 0 then begin
    sys.l_next.(s) <- sys.l_next.(p);
    sys.l_next.(p) <- s
  end
  else begin
    sys.l_next.(s) <- c_live sys c;
    set_c_live sys c s
  end

let unlink_live sys c s =
  let p = live_pred sys c s in
  if p >= 0 then sys.l_next.(p) <- sys.l_next.(s) else set_c_live sys c sys.l_next.(s);
  sys.l_next.(s) <- -1

(* Slot walks over a currency's issued and backing lists. The next slot is
   captured before the callback runs, so detaching the visited ticket from
   inside [f] is safe. *)
let iter_slots next head f =
  let s = ref head in
  while !s >= 0 do
    let n = next.(!s) in
    f !s;
    s := n
  done

let iter_issued sys c f =
  iter_slots sys.i_next c.issued f

let iter_backing sys c f =
  if c.cslot >= 0 then iter_slots sys.b_next (c_backing sys c.cslot) f

let collect_list iter sys c =
  let acc = ref [] in
  iter sys c (fun s -> acc := sys.tk_tab.(s) :: !acc);
  List.rev !acc

(* --- watches ---------------------------------------------------------------

   A consumer's queue is its sink: [invalidate] pushes a watch's int tag
   into it when it flips the watched currency stale. *)

let queue sys =
  (* A queue draws one id from the shared counter, which keeps the cid/tid
     sequences (visible in pp/dot output) of a system with consumers what
     they were when each consumer subscribed to change events instead. *)
  ignore (fresh_id sys : int);
  new_queue ()

let watch c q ~tag =
  if c.cslot < 0 then invalid_arg "Funding.watch: dead currency";
  if tag < 0 then invalid_arg "Funding.watch: negative tag";
  if c.sink == no_sink then begin
    c.sink <- q;
    c.tag <- tag
  end
  else c.more <- (q, tag) :: c.more

let tag c q =
  if c.sink == q then c.tag
  else Option.value (List.assq_opt q c.more) ~default:(-1)

let close_run q =
  for i = 0 to ((q.len - q.run) / 2) - 1 do
    let a = q.run + i and b = q.len - 1 - i in
    let x = q.tags.(a) in
    q.tags.(a) <- q.tags.(b);
    q.tags.(b) <- x
  done;
  q.run <- q.len;
  q.run_batch <- -1

let push sys q tag =
  sys.hook_calls <- sys.hook_calls + 1;
  let m = q.marks in
  if tag >= Bytes.length m then
    q.marks <-
      Bytes.init (2 * (tag + 8)) (fun i ->
          if i < Bytes.length m then Bytes.get m i else '\000');
  if Bytes.get q.marks tag = '\000' then begin
    Bytes.set q.marks tag '\001';
    if q.run_batch <> sys.batch then begin
      close_run q;
      q.run_batch <- sys.batch
    end;
    if q.len = Array.length q.tags then begin
      let a = Array.make (2 * (q.len + 8)) 0 in
      Array.blit q.tags 0 a 0 q.len;
      q.tags <- a
    end;
    q.tags.(q.len) <- tag;
    q.len <- q.len + 1
  end

let rec push_more sys = function
  | [] -> ()
  | (q, tag) :: rest ->
      push sys q tag;
      push_more sys rest

(* Ends a mutation: later flips open a new run in every queue. *)
let close_batch sys = sys.batch <- sys.batch + 1

let[@inline] is_queued q tag =
  tag < Bytes.length q.marks && Bytes.unsafe_get q.marks tag <> '\000'

let cancel q tag =
  if is_queued q tag then begin
    Bytes.set q.marks tag '\000';
    for i = 0 to q.len - 1 do
      if q.tags.(i) = tag then q.tags.(i) <- -1
    done
  end

let settle q =
  close_run q;
  q.len

let nth q i = q.tags.(i)
let queued q = q.len

let clear q =
  for i = 0 to q.len - 1 do
    if q.tags.(i) >= 0 then Bytes.set q.marks q.tags.(i) '\000'
  done;
  q.len <- 0;
  q.run <- 0;
  q.run_batch <- -1

(* --- invalidation -------------------------------------------------------

   A currency's value depends on its backing tickets' denominations, so a
   mutation at [c] can move the value of any currency reachable from [c]
   through active issued tickets that back other currencies ("upward",
   toward the thread/client leaves in the paper's Figure 3). Three
   properties keep this cheap and sound:

   - live edges only: an inactive ticket contributes 0 to the currency it
     backs, so no change at its denomination can move that value; the walk
     follows [c]'s live list, not its issued list, and a block or wake
     costs O(live dependents) however many idle siblings the currency has;
   - stop-early: if [c] is already stale, every dependent was staled when
     [c] was (a valid currency has valid active supports: reads revalidate
     a currency only after revalidating the denominations of its active
     backing tickets, and a ticket's activation stales the currency it
     backs), so the walk can stop;
   - base opacity: the base currency's unit value is the constant 1, so its
     active-amount changes never move a dependent's value — base keeps no
     live list, so invalidation of base records base itself and propagates
     no further. This is what makes a block/wake of a base-funded thread
     O(1).

   The walk is a plain loop over the live list (depth first, head first)
   that reads, per edge, the next link and the slot of the currency the
   ticket backs, so it builds no closure and reads no ticket record; the
   flip-to-stale also makes each currency flip at most once per mutation,
   and each flip pushes the tags of the currency's watches there and then.
   A mutation flips the currencies a walk over every issued edge would, in
   the same order, minus the ones that walk reaches only through inactive
   tickets, whose values the mutation cannot move. *)

let rec invalidate sys j =
  if is_valid sys j then begin
    Bytes.unsafe_set sys.c_bits j '\000';
    let c = sys.cur_tab.(j) in
    if c.sink != no_sink then begin
      push sys c.sink c.tag;
      push_more sys c.more
    end;
    let s = ref (c_live sys j) in
    while !s >= 0 do
      let n = sys.l_next.(!s) in
      sys.edges_walked <- sys.edges_walked + 1;
      invalidate sys (t_backs sys !s);
      s := n
    done
  end

let make_currency sys ~name =
  if Hashtbl.mem sys.by_name name then raise (Duplicate_name name);
  let cid = fresh_id sys in
  let s = Slots.alloc sys.cur_slots in
  let c =
    {
      cid;
      cslot = s;
      cname = name;
      visit = 0;
      issued = -1;
      sink = no_sink;
      tag = 0;
      more = [];
    }
  in
  fit_currency_tables sys s c;
  Hashtbl.replace sys.by_name name c;
  c

let find_currency sys name = Hashtbl.find_opt sys.by_name name
let currency_name c = c.cname
let currency_id c = c.cid
let currency_slot c = c.cslot

let currency_generation sys c =
  if c.cslot < 0 then -1 else Slots.gen sys.cur_slots c.cslot

(* Base takes the first id. *)
let is_base c = c.cid = 0

let currencies sys =
  List.rev
    (Slots.fold_live sys.cur_slots ~init:[] ~f:(fun acc s ->
         sys.cur_tab.(s) :: acc))

let live_currency_count sys = Slots.live_count sys.cur_slots

(* A removed currency has no issued tickets, so its active amount and live
   list are already empty; its cache entries are reset for the slot's next
   occupant. *)
let remove_currency sys c =
  if is_base c then raise (In_use "base currency cannot be removed");
  let j = c.cslot in
  if j < 0 then invalid_arg "Funding.remove_currency: already removed";
  if c.issued >= 0 then raise (In_use (c.cname ^ " still has issued tickets"));
  if c_backing sys j >= 0 then
    raise (In_use (c.cname ^ " still has backing tickets"));
  Hashtbl.remove sys.by_name c.cname;
  c.sink <- no_sink;
  c.more <- [];
  Bytes.set sys.c_bits j '\000';
  sys.vals.(j) <- 0.;
  sys.units.(j) <- 0.;
  Slots.release sys.cur_slots j;
  c.cslot <- -1

let active_amount sys c = if c.cslot < 0 then 0 else c_active sys c.cslot
let issued_tickets sys c = collect_list iter_issued sys c
let backing_tickets sys c = collect_list iter_backing sys c

let max_amount = 1 lsl 32

let check_amount who amount =
  if amount < 0 then invalid_arg (who ^ ": negative amount");
  if amount > max_amount then
    invalid_arg
      (Printf.sprintf "%s: amount %d above the bound %d (2^32)" who amount
         max_amount)

let issue sys ~currency ~amount =
  check_amount "Funding.issue" amount;
  if currency.cslot < 0 then invalid_arg "Funding.issue: dead currency";
  let tid = fresh_id sys in
  let s = Slots.alloc sys.tk_slots in
  let t = { tid; tkslot = s; denom = currency } in
  fit_ticket_tables sys s t;
  set_t_amount sys s amount;
  set_t_denom sys s currency.cslot;
  link_issued sys currency s;
  t

let amount sys t = if t.tkslot < 0 then -1 - t.tkslot else t_amount sys t.tkslot
let denomination t = t.denom
let ticket_id t = t.tid
let ticket_slot t = if t.tkslot < 0 then -1 else t.tkslot

let ticket_generation sys t =
  if t.tkslot < 0 then -1 else Slots.gen sys.tk_slots t.tkslot

let is_active sys t = t.tkslot >= 0 && is_on sys t.tkslot

let funds sys t =
  if t.tkslot < 0 then None
  else
    let j = t_backs sys t.tkslot in
    if j < 0 then None else Some sys.cur_tab.(j)

let is_held sys t = t.tkslot >= 0 && held sys t.tkslot

(* The slot of a ticket that is not destroyed. *)
let live_slot t name =
  if t.tkslot < 0 then invalid_arg (name ^ ": destroyed ticket");
  t.tkslot

let check_held sys s name = if not (held sys s) then invalid_arg (name ^ ": ticket not held")

(* A ticket's activity flip moves two things: its denomination's active
   amount (hence unit value), and — when the ticket backs a currency — that
   currency's value. Both get invalidated here, so the zero-crossing cascade
   below stales exactly the affected region of the graph. *)
let flip_invalidate sys s =
  invalidate sys (t_denom sys s);
  let j = t_backs sys s in
  if j >= 0 then invalidate sys j

(* Whether the ticket belongs in its denomination's live list once
   active. *)
let[@inline] tracks_live sys s = t_backs sys s >= 0 && t_denom sys s <> base_slot

(* Activation propagation (paper §4.4): activating a ticket raises its
   denomination's active amount; on a zero -> nonzero transition every
   backing ticket of that currency activates in turn, and symmetrically for
   deactivation. The backing walks are loops over slots, so a cascade
   allocates nothing and reads no ticket record.

   These two functions are the only writers of the active bit, so they
   keep the live lists: a ticket links in before its activation's flip and
   unlinks after its deactivation's, so the flip's walk visits it either
   way, as a walk over every issued edge would. *)
let rec activate_ticket sys s =
  if not (is_on sys s) then begin
    set_flag sys s active_bit true;
    let c = t_denom sys s in
    if tracks_live sys s then link_live sys c s;
    flip_invalidate sys s;
    let was_zero = c_active sys c = 0 in
    set_c_active sys c (c_active sys c + t_amount sys s);
    if was_zero && c_active sys c > 0 then activate_backing sys c
  end

and activate_backing sys c =
  let s = ref (c_backing sys c) in
  while !s >= 0 do
    let n = sys.b_next.(!s) in
    activate_ticket sys !s;
    s := n
  done

let rec deactivate_ticket sys s =
  if is_on sys s then begin
    set_flag sys s active_bit false;
    flip_invalidate sys s;
    let c = t_denom sys s in
    if tracks_live sys s then unlink_live sys c s;
    let was_positive = c_active sys c > 0 in
    set_c_active sys c (c_active sys c - t_amount sys s);
    assert (c_active sys c >= 0);
    if was_positive && c_active sys c = 0 then deactivate_backing sys c
  end

and deactivate_backing sys c =
  let s = ref (c_backing sys c) in
  while !s >= 0 do
    let n = sys.b_next.(!s) in
    deactivate_ticket sys !s;
    s := n
  done

let set_amount sys t new_amount =
  let s = live_slot t "Funding.set_amount" in
  check_amount "Funding.set_amount" new_amount;
  if is_on sys s then begin
    flip_invalidate sys s;
    let c = t_denom sys s in
    let old_sum = c_active sys c in
    let new_sum = old_sum - t_amount sys s + new_amount in
    set_t_amount sys s new_amount;
    set_c_active sys c new_sum;
    if old_sum = 0 && new_sum > 0 then activate_backing sys c
    else if old_sum > 0 && new_sum = 0 then deactivate_backing sys c
  end
  else set_t_amount sys s new_amount;
  close_batch sys

(* A backing edge [currency <- ticket] makes [currency]'s value depend on
   the ticket's denomination. Funding [c] with a ticket denominated in [d]
   is cyclic iff [d]'s value already depends on [c]. The walk marks each
   visited currency with the check's stamp, so shared sub-graphs (diamonds)
   are visited once, and it is a top-level loop over slots: a [fund] (one
   per ticket transfer) allocates nothing here. *)
let rec depends_on sys funded j =
  j = funded
  ||
  let c = sys.cur_tab.(j) in
  c.visit <> sys.stamp
  && begin
       c.visit <- sys.stamp;
       backing_depends sys funded (c_backing sys j)
     end

and backing_depends sys funded s =
  s >= 0
  && (depends_on sys funded (t_denom sys s) || backing_depends sys funded sys.b_next.(s))

let would_cycle sys ~funded ~denom =
  sys.stamp <- sys.stamp + 1;
  depends_on sys funded.cslot denom.cslot

let fund sys ~ticket ~currency =
  let s = live_slot ticket "Funding.fund" in
  let j = currency.cslot in
  if j < 0 then invalid_arg "Funding.fund: dead currency";
  if t_backs sys s >= 0 || held sys s then
    invalid_arg "Funding.fund: ticket already attached";
  if currency.cid = ticket.denom.cid then
    invalid_arg "Funding.fund: ticket cannot fund its own denomination";
  if would_cycle sys ~funded:currency ~denom:ticket.denom then
    raise
      (Cycle
         (Printf.sprintf "funding %s with a ticket denominated in %s"
            currency.cname ticket.denom.cname));
  set_t_backs sys s j;
  link_backing sys j s;
  invalidate sys j;
  if c_active sys j > 0 then activate_ticket sys s;
  close_batch sys

let unfund sys t =
  let s = live_slot t "Funding.unfund" in
  let j = t_backs sys s in
  if j < 0 then invalid_arg "Funding.unfund: ticket not backing";
  deactivate_ticket sys s;
  unlink_backing sys j s;
  set_t_backs sys s (-1);
  invalidate sys j;
  close_batch sys

let hold sys t =
  let s = live_slot t "Funding.hold" in
  if t_backs sys s >= 0 then
    invalid_arg "Funding.hold: ticket is backing a currency";
  set_flag sys s held_bit true;
  activate_ticket sys s;
  close_batch sys

let suspend sys t =
  let s = live_slot t "Funding.suspend" in
  check_held sys s "Funding.suspend";
  deactivate_ticket sys s;
  close_batch sys

let resume sys t =
  let s = live_slot t "Funding.resume" in
  check_held sys s "Funding.resume";
  activate_ticket sys s;
  close_batch sys

let release sys t =
  let s = live_slot t "Funding.release" in
  check_held sys s "Funding.release";
  deactivate_ticket sys s;
  set_flag sys s held_bit false;
  close_batch sys

let destroy_ticket sys t =
  let s = live_slot t "Funding.destroy_ticket" in
  if t_backs sys s >= 0 then unfund sys t
  else if held sys s then release sys t;
  unlink_issued sys t.denom s;
  let a = t_amount sys s in
  set_t_amount sys s 0;
  Bytes.set sys.t_flags s '\000';
  set_t_denom sys s (-1);
  Slots.release sys.tk_slots s;
  t.tkslot <- -1 - a;
  close_batch sys

(* --- valuation ----------------------------------------------------------

   Reads revalidate lazily: a stale currency recomputes its value from its
   backing tickets, pulling (and caching) the unit values of their
   denominations on the way down. A quiescent graph is therefore valued
   once, and each mutation only forces recomputation of the currencies it
   actually dirtied. The arithmetic (fold order over the backing edges,
   value/active division) is identical to a from-scratch walk, so cached
   results are bit-for-bit equal to uncached ones. *)

let rec ensure sys j =
  (* Seed with 0 so a (dynamically created, normally impossible) cycle
     terminates instead of looping. *)
  Bytes.unsafe_set sys.c_bits j '\001';
  if j = base_slot then begin
    sys.vals.(j) <- float_of_int (c_active sys j);
    sys.units.(j) <- 1.
  end
  else begin
    sys.vals.(j) <- 0.;
    sys.units.(j) <- 0.;
    (* Left fold, head (most recent edge) first: the same float
       accumulation order as the historical list fold. The denomination's
       unit value is read straight from [units] after revalidating it, so
       the fold never boxes an intermediate, and each edge is read from
       the slot tables alone. *)
    let v = ref 0. in
    let s = ref (c_backing sys j) in
    while !s >= 0 do
      if is_on sys !s then begin
        let d = t_denom sys !s in
        let u =
          if d = base_slot then 1.
          else begin
            if not (is_valid sys d) then ensure sys d;
            sys.units.(d)
          end
        in
        v := !v +. (float_of_int (t_amount sys !s) *. u)
      end;
      s := sys.b_next.(!s)
    done;
    let a = c_active sys j in
    sys.vals.(j) <- !v;
    sys.units.(j) <- (if a = 0 then 0. else !v /. float_of_int a)
  end

let[@inline] validate sys j = if not (is_valid sys j) then ensure sys j

(* No zero-active shortcut here: a read must leave the currency validated
   (stop-early invalidation relies on "a valid currency has valid
   supports"), and [ensure] already caches unit value 0 in that case. A
   removed currency has no backing and no issued tickets, so its value and
   unit value are 0; it no longer owns a cache slot. *)
let unit_val sys c =
  if is_base c then 1.
  else if c.cslot < 0 then 0.
  else begin
    validate sys c.cslot;
    sys.units.(c.cslot)
  end

(* The value sits unboxed in [vals], so a call that returns it boxes a
   fresh float; [@inline] lets a cross-module caller compiled against this
   module's .cmx keep it in a register instead. *)
let[@inline] value_of_currency sys c =
  let j = c.cslot in
  if j < 0 then 0.
  else begin
    validate sys j;
    Array.unsafe_get sys.vals j
  end

let value_table sys j =
  validate sys j;
  sys.vals

let unit_table sys c =
  if not (is_base c) then validate sys c.cslot;
  sys.units

let values sys = sys.vals
let cache_valid sys c = c.cslot >= 0 && is_valid sys c.cslot
let edges_walked sys = sys.edges_walked
let hook_calls sys = sys.hook_calls

(* The denomination is validated even when the ticket is inactive: a
   consumer that caches this 0 must be told (through its watch) when the
   ticket's activation later makes it worth something, and watches only
   hear of valid -> stale flips. *)
let value_of_ticket sys t =
  let u = unit_val sys t.denom in
  if is_active sys t then float_of_int (t_amount sys t.tkslot) *. u else 0.

let ticket_value sys t = value_of_ticket sys t
let[@inline] currency_value sys c = value_of_currency sys c
let unit_value sys c = unit_val sys c

(* From-scratch valuation with a private memo, bypassing the caches: the
   reference implementation [check_invariants] audits the caches against. *)
let uncached_currency_value sys c =
  let memo = Hashtbl.create 32 in
  let rec unit j =
    if j = base_slot then 1.
    else if c_active sys j = 0 then 0.
    else
      match Hashtbl.find_opt memo j with
      | Some x -> x
      | None ->
          Hashtbl.replace memo j 0.;
          let x = value j /. float_of_int (c_active sys j) in
          Hashtbl.replace memo j x;
          x
  and value j =
    if j = base_slot then float_of_int (c_active sys j)
    else begin
      let acc = ref 0. in
      iter_slots sys.b_next (c_backing sys j) (fun s ->
          if is_on sys s then
            acc := !acc +. (float_of_int (t_amount sys s) *. unit (t_denom sys s)));
      !acc
    end
  in
  value c.cslot

(* The slot tables against the edge lists and the records they describe:
   for each live currency, its active sum, its cache, its backing and
   issued lists and its live list; for each live ticket, its attachment
   and its copies of the record's fields; for each released slot, reset
   entries. *)
let check_invariants sys =
  let fail fmt = Printf.ksprintf failwith fmt in
  let tk s = sys.tk_tab.(s) in
  Slots.iter_live sys.cur_slots (fun slot ->
      let c = sys.cur_tab.(slot) in
      if c.cslot < 0 then fail "dead currency %s in arena" c.cname;
      if c.cslot <> slot then
        fail "currency %s: slot field %d <> arena slot %d" c.cname c.cslot slot;
      if is_base c <> (slot = base_slot) then
        fail "currency %s: base flag disagrees with slot %d" c.cname slot;
      let active = c_active sys slot in
      (* Active amount equals sum of active issued ticket amounts. *)
      let sum = ref 0 in
      iter_issued sys c (fun s -> if is_on sys s then sum := !sum + t_amount sys s);
      if !sum <> active then
        fail "currency %s: active_amount %d <> recomputed %d" c.cname active !sum;
      (* A valid cache must agree exactly with a from-scratch valuation. *)
      if is_valid sys slot then begin
        let fresh = uncached_currency_value sys c in
        if sys.vals.(slot) <> fresh then
          fail "currency %s: cached value %g <> recomputed %g" c.cname
            sys.vals.(slot) fresh;
        let fresh_unit =
          if is_base c then 1.
          else if active = 0 then 0.
          else fresh /. float_of_int active
        in
        if (not (is_base c)) && sys.units.(slot) <> fresh_unit then
          fail "currency %s: cached unit value %g <> recomputed %g" c.cname
            sys.units.(slot) fresh_unit
      end;
      (* Attachment symmetry for backing tickets. *)
      iter_backing sys c (fun s ->
          if t_backs sys s <> slot then
            fail "currency %s: backing ticket %d not attached to it" c.cname (tk s).tid;
          if not (Slots.is_live sys.tk_slots s) then
            fail "currency %s: destroyed backing ticket" c.cname;
          (* Propagation: a backing ticket is active iff the funded currency
             has a nonzero active amount. *)
          if is_on sys s <> (active > 0) then
            fail "currency %s: backing ticket %d activity %b vs amount %d" c.cname
              (tk s).tid (is_on sys s) active);
      iter_issued sys c (fun s ->
          let t = tk s in
          if not (Slots.is_live sys.tk_slots s) then
            fail "currency %s: destroyed issued ticket" c.cname;
          if t.tkslot <> s then fail "ticket %d: stale arena slot %d" t.tid t.tkslot;
          if t.denom != c || t_denom sys s <> slot then
            fail "currency %s: issued ticket %d has wrong denomination" c.cname t.tid;
          let j = t_backs sys s in
          if j >= 0 && held sys s then fail "ticket %d: both held and backing" t.tid;
          if j < 0 && (not (held sys s)) && is_on sys s then
            fail "unattached ticket %d is active" t.tid;
          if j >= 0 then begin
            if not (Slots.is_live sys.cur_slots j) then
              fail "ticket %d backs the dead currency slot %d" t.tid j;
            let listed = ref false in
            iter_slots sys.b_next (c_backing sys j) (fun b -> if b = s then listed := true);
            if not !listed then
              fail "ticket %d claims to back %s but is not listed" t.tid
                sys.cur_tab.(j).cname
          end);
      (* Live list: exactly the active issued tickets that back a currency,
         in issued order, with symmetric links; base keeps none. *)
      let expected = ref [] in
      iter_issued sys c (fun s ->
          if tracks_live sys s && is_on sys s then expected := s :: !expected
          else if sys.l_next.(s) >= 0 || c_live sys slot = s then
            fail "ticket %d: off its live list but still linked" (tk s).tid);
      let expected = List.rev !expected in
      let bound = List.length expected in
      let got = ref [] and n = ref 0 in
      let s = ref (c_live sys slot) in
      while !s >= 0 && !n <= bound do
        got := !s :: !got;
        incr n;
        s := sys.l_next.(!s)
      done;
      if List.rev !got <> expected then
        fail "currency %s: live list [%s] <> active backing issued [%s]" c.cname
          (String.concat ";" (List.rev_map string_of_int !got))
          (String.concat ";" (List.map string_of_int expected));
      (* Acyclicity: depth-first walk with a white/grey/black marking, so
         shared sub-graphs are visited once instead of once per path. *)
      let color = Hashtbl.create 16 in
      let rec walk j =
        match Hashtbl.find_opt color j with
        | Some `Done -> ()
        | Some `On_path -> fail "cycle through currency %s" sys.cur_tab.(j).cname
        | None ->
            Hashtbl.replace color j `On_path;
            iter_slots sys.b_next (c_backing sys j) (fun b -> walk (t_denom sys b));
            Hashtbl.replace color j `Done
      in
      walk slot);
  (* Every live ticket sits in its denomination's issued list, which the
     sweep above checked entry by entry. *)
  Slots.iter_live sys.tk_slots (fun s ->
      let d = t_denom sys s in
      if not (Slots.is_live sys.cur_slots d) then
        fail "ticket %d: denomination slot %d is not live" (tk s).tid d;
      let listed = ref false in
      iter_slots sys.i_next sys.cur_tab.(d).issued (fun i -> if i = s then listed := true);
      if not !listed then fail "ticket %d: not in its denomination's issued list" (tk s).tid);
  (* Released slots keep no state for their next occupant to inherit. *)
  for s = 0 to Slots.used sys.tk_slots - 1 do
    if
      (not (Slots.is_live sys.tk_slots s))
      && (t_amount sys s <> 0
         || Bytes.get sys.t_flags s <> '\000'
         || t_backs sys s <> -1
         || t_denom sys s <> -1
         || sys.i_prev.(s) <> -1
         || sys.i_next.(s) <> -1
         || sys.b_prev.(s) <> -1
         || sys.b_next.(s) <> -1
         || sys.l_next.(s) <> -1)
    then fail "released ticket slot %d keeps state" s
  done;
  for j = 0 to Slots.used sys.cur_slots - 1 do
    if
      (not (Slots.is_live sys.cur_slots j))
      && (c_active sys j <> 0
         || Bytes.get sys.c_bits j <> '\000'
         || c_backing sys j <> -1
         || c_live sys j <> -1
)
    then fail "released currency slot %d keeps state" j
  done

let pp_ticket sys fmt t =
  Format.fprintf fmt "#%d %d.%s%s%s" t.tid (amount sys t) t.denom.cname
    (if is_active sys t then " [active]" else "")
    (match funds sys t with
    | Some c -> " -> " ^ c.cname
    | None -> if is_held sys t then " held" else "")

let pp_currency sys fmt c =
  Format.fprintf fmt "@[<v 2>currency %s (active %d)@,issued: %a@,backing: %a@]"
    c.cname (active_amount sys c)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (pp_ticket sys))
    (issued_tickets sys c)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (pp_ticket sys))
    (backing_tickets sys c)

let to_dot sys =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph funding {\n  rankdir=TB;\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d [shape=box, label=\"%s\\nactive %d\"];\n" c.cid
           c.cname (active_amount sys c)))
    (currencies sys);
  List.iter
    (fun c ->
      List.iter
        (fun t ->
          let style = if is_active sys t then "solid" else "dashed" in
          match funds sys t with
          | Some target ->
              Buffer.add_string buf
                (Printf.sprintf "  c%d -> c%d [label=\"%d.%s\", style=%s];\n" c.cid
                   target.cid (amount sys t) c.cname style)
          | None when is_held sys t ->
              Buffer.add_string buf
                (Printf.sprintf
                   "  t%d [shape=ellipse, label=\"ticket %d.%s\"];\n  c%d -> t%d [style=%s];\n"
                   t.tid (amount sys t) c.cname c.cid t.tid style)
          | None -> ())
        (issued_tickets sys c))
    (currencies sys);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_system fmt sys =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_currency sys))
    (currencies sys)
