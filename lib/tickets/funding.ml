exception Cycle of string
exception Duplicate_name of string
exception In_use of string

module Slots = Lotto_arena.Slots

type attach = Unattached | Backs of currency | Held

and ticket = {
  tid : int;  (** unique forever; never recycled *)
  mutable tkslot : int;
      (** dense arena slot; [-1] once destroyed and the slot recycled *)
  mutable amount : int;
  denom : currency;
  mutable attach : attach;
  mutable active : bool;
  mutable destroyed : bool;
}

and currency = {
  cid : int;  (** unique forever; never recycled *)
  mutable cslot : int;
      (** dense arena slot; [-1] once removed, which is how liveness is
          read. Consumers (the scheduler)
          index per-currency state arrays by it, guarding against recycling
          with a physical-equality check on the stored currency. *)
  cname : string;
  base_p : bool;
  (* Issued/backing edges live as intrusive doubly-linked lists threaded
     through the system's adjacency arrays ([i_prev]/[i_next] for the
     issued list of the denomination, [b_prev]/[b_next] for the backing
     list of the funded currency), indexed by ticket slot. The heads below
     point at the most recently linked ticket, so iteration order is
     exactly the old most-recent-first list order, and unlinking is O(1)
     instead of a [List.filter] over every edge. *)
  mutable issued_head : int;
  mutable backing_head : int;
  mutable active_amount : int;
  mutable cache_ok : bool;
      (* the currency's entries in the system's [vals]/[units] caches are
         current; see [ensure] *)
  mutable visit : int;
      (* the system's [stamp] of the last cycle check that reached it *)
  (* The currency's watches, read by a flip from the record it already
     holds: the first ([sink] is [no_sink] for none), any further ones
     (rare) in [more]. *)
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
  (* Ticket arena and the edge adjacency arrays indexed by ticket slot. A
     ticket sits in its denomination's issued list for its whole life and
     in at most one backing list (while [attach = Backs _]), so one slot
     carries both link pairs. [-1] terminates. *)
  tk_slots : Slots.t;
  mutable tk_tab : ticket array;
  mutable i_prev : int array;
  mutable i_next : int array;
  mutable b_prev : int array;
  mutable b_next : int array;
  (* Live lists: each non-base currency's active issued tickets that back
     a currency, in issued-list order (most recent first), threaded through
     [l_prev]/[l_next] by ticket slot, with heads in [live_head] by
     currency slot. Invalidation walks only these edges: an inactive
     ticket backs a currency with zero active amount, whose value is 0
     whatever its supports are worth. Base keeps no list (base opacity:
     invalidation never walks it). *)
  mutable l_prev : int array;
  mutable l_next : int array;
  mutable live_head : int array;
  mutable edges_walked : int; (* live edges visited by [invalidate] *)
  (* Incremental valuation caches, indexed by currency slot. While a
     currency's [cache_ok] holds, [vals] has its value (sum of its active
     backing tickets in base units; for base, the active amount) and
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

let fresh_id sys =
  let id = sys.next_id in
  sys.next_id <- id + 1;
  id

let create_system () =
  let cur_slots = Slots.create () in
  let base_slot = Slots.alloc cur_slots in
  let base_currency =
    {
      cid = 0;
      cslot = base_slot;
      cname = "base";
      base_p = true;
      issued_head = -1;
      backing_head = -1;
      active_amount = 0;
      cache_ok = false;
      visit = 0;
      sink = no_sink;
      tag = 0;
      more = [];
    }
  in
  let cur_tab = Slots.grow_payload cur_slots [||] ~dummy:base_currency in
  cur_tab.(base_slot) <- base_currency;
  let by_name = Hashtbl.create 16 in
  Hashtbl.replace by_name "base" base_currency;
  {
    next_id = 1;
    base_currency;
    by_name;
    cur_slots;
    cur_tab;
    tk_slots = Slots.create ();
    tk_tab = [||];
    i_prev = [||];
    i_next = [||];
    b_prev = [||];
    b_next = [||];
    l_prev = [||];
    l_next = [||];
    live_head = Slots.grow_payload cur_slots [||] ~dummy:(-1);
    edges_walked = 0;
    vals = Slots.grow_payload cur_slots [||] ~dummy:0.;
    units = Slots.grow_payload cur_slots [||] ~dummy:1.;
    hook_calls = 0;
    batch = 0;
    stamp = 0;
  }

let base sys = sys.base_currency

(* --- edge lists ---------------------------------------------------------

   Prepends and unlinks on the intrusive lists. New edges link at the head,
   matching the historical [t :: list] prepend, so every traversal below
   visits tickets in the same most-recent-first order as the list
   representation did — load-bearing for the float fold in [ensure] and for
   the order in which cascades and invalidation visit edges. *)

let link_issued sys c s =
  sys.i_prev.(s) <- -1;
  sys.i_next.(s) <- c.issued_head;
  if c.issued_head >= 0 then sys.i_prev.(c.issued_head) <- s;
  c.issued_head <- s

let unlink_issued sys c s =
  let p = sys.i_prev.(s) and n = sys.i_next.(s) in
  if p >= 0 then sys.i_next.(p) <- n else c.issued_head <- n;
  if n >= 0 then sys.i_prev.(n) <- p;
  sys.i_prev.(s) <- -1;
  sys.i_next.(s) <- -1

let link_backing sys c s =
  sys.b_prev.(s) <- -1;
  sys.b_next.(s) <- c.backing_head;
  if c.backing_head >= 0 then sys.b_prev.(c.backing_head) <- s;
  c.backing_head <- s

let unlink_backing sys c s =
  let p = sys.b_prev.(s) and n = sys.b_next.(s) in
  if p >= 0 then sys.b_next.(p) <- n else c.backing_head <- n;
  if n >= 0 then sys.b_prev.(n) <- p;
  sys.b_prev.(s) <- -1;
  sys.b_next.(s) <- -1

(* The live list keeps issued order, which is decreasing ticket id, so a
   ticket links in after every newer live ticket: O(newer live tickets),
   no more than an invalidation of the currency walks. *)
let link_live sys c s =
  let tid = sys.tk_tab.(s).tid in
  let p = ref (-1) and n = ref sys.live_head.(c.cslot) in
  while !n >= 0 && sys.tk_tab.(!n).tid > tid do
    p := !n;
    n := sys.l_next.(!n)
  done;
  sys.l_prev.(s) <- !p;
  sys.l_next.(s) <- !n;
  if !p >= 0 then sys.l_next.(!p) <- s else sys.live_head.(c.cslot) <- s;
  if !n >= 0 then sys.l_prev.(!n) <- s

let unlink_live sys c s =
  let p = sys.l_prev.(s) and n = sys.l_next.(s) in
  if p >= 0 then sys.l_next.(p) <- n else sys.live_head.(c.cslot) <- n;
  if n >= 0 then sys.l_prev.(n) <- p;
  sys.l_prev.(s) <- -1;
  sys.l_next.(s) <- -1

(* The next slot is captured before the callback runs, so detaching the
   visited ticket from inside [f] is safe. *)
let iter_issued sys c f =
  let s = ref c.issued_head in
  while !s >= 0 do
    let t = sys.tk_tab.(!s) in
    let n = sys.i_next.(!s) in
    f t;
    s := n
  done

let iter_backing sys c f =
  let s = ref c.backing_head in
  while !s >= 0 do
    let t = sys.tk_tab.(!s) in
    let n = sys.b_next.(!s) in
    f t;
    s := n
  done

let exists_backing sys c f =
  let s = ref c.backing_head in
  let found = ref false in
  while (not !found) && !s >= 0 do
    if f sys.tk_tab.(!s) then found := true else s := sys.b_next.(!s)
  done;
  !found

let collect_list iter sys c =
  let acc = ref [] in
  iter sys c (fun t -> acc := t :: !acc);
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
     active-amount changes never move a dependent's value — invalidation of
     base records base itself and propagates no further. This is what makes
     a block/wake of a base-funded thread O(1).

   The walk is a plain loop over the live list (depth first, head first),
   so it builds no closure per visited currency; the flip-to-stale also
   makes each currency flip at most once per mutation, and each flip pushes
   the tags of the currency's watches there and then. A mutation flips the
   currencies a walk over every issued edge would, in the same order, minus
   the ones that walk reaches only through inactive tickets, whose values
   the mutation cannot move. *)

let rec invalidate sys c =
  if c.cache_ok then begin
    c.cache_ok <- false;
    if c.sink != no_sink then begin
      push sys c.sink c.tag;
      push_more sys c.more
    end;
    if not c.base_p then begin
      let s = ref sys.live_head.(c.cslot) in
      while !s >= 0 do
        let n = sys.l_next.(!s) in
        sys.edges_walked <- sys.edges_walked + 1;
        (match sys.tk_tab.(!s).attach with
        | Backs c' -> invalidate sys c'
        | Unattached | Held -> ());
        s := n
      done
    end
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
      base_p = false;
      issued_head = -1;
      backing_head = -1;
      active_amount = 0;
      cache_ok = false;
      visit = 0;
      sink = no_sink;
      tag = 0;
      more = [];
    }
  in
  sys.cur_tab <- Slots.grow_payload sys.cur_slots sys.cur_tab ~dummy:c;
  sys.cur_tab.(s) <- c;
  sys.vals <- Slots.grow_payload sys.cur_slots sys.vals ~dummy:0.;
  sys.units <- Slots.grow_payload sys.cur_slots sys.units ~dummy:0.;
  sys.live_head <- Slots.grow_payload sys.cur_slots sys.live_head ~dummy:(-1);
  Hashtbl.replace sys.by_name name c;
  c

let find_currency sys name = Hashtbl.find_opt sys.by_name name
let currency_name c = c.cname
let currency_id c = c.cid
let currency_slot c = c.cslot

let currency_generation sys c =
  if c.cslot < 0 then -1 else Slots.gen sys.cur_slots c.cslot

let is_base c = c.base_p

let currencies sys =
  List.rev
    (Slots.fold_live sys.cur_slots ~init:[] ~f:(fun acc s ->
         sys.cur_tab.(s) :: acc))

let live_currency_count sys = Slots.live_count sys.cur_slots

let remove_currency sys c =
  if c.base_p then raise (In_use "base currency cannot be removed");
  if c.cslot < 0 then invalid_arg "Funding.remove_currency: already removed";
  if c.issued_head >= 0 then
    raise (In_use (c.cname ^ " still has issued tickets"));
  if c.backing_head >= 0 then
    raise (In_use (c.cname ^ " still has backing tickets"));
  Hashtbl.remove sys.by_name c.cname;
  c.sink <- no_sink;
  c.more <- [];
  Slots.release sys.cur_slots c.cslot;
  c.cslot <- -1

let active_amount c = c.active_amount
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
  let t =
    {
      tid;
      tkslot = s;
      amount;
      denom = currency;
      attach = Unattached;
      active = false;
      destroyed = false;
    }
  in
  sys.tk_tab <- Slots.grow_payload sys.tk_slots sys.tk_tab ~dummy:t;
  sys.tk_tab.(s) <- t;
  sys.i_prev <- Slots.grow_payload sys.tk_slots sys.i_prev ~dummy:(-1);
  sys.i_next <- Slots.grow_payload sys.tk_slots sys.i_next ~dummy:(-1);
  sys.b_prev <- Slots.grow_payload sys.tk_slots sys.b_prev ~dummy:(-1);
  sys.b_next <- Slots.grow_payload sys.tk_slots sys.b_next ~dummy:(-1);
  sys.l_prev <- Slots.grow_payload sys.tk_slots sys.l_prev ~dummy:(-1);
  sys.l_next <- Slots.grow_payload sys.tk_slots sys.l_next ~dummy:(-1);
  link_issued sys currency s;
  t

let amount t = t.amount
let denomination t = t.denom
let ticket_id t = t.tid
let ticket_slot t = t.tkslot

let ticket_generation sys t =
  if t.tkslot < 0 then -1 else Slots.gen sys.tk_slots t.tkslot

let is_active t = t.active
let funds t = match t.attach with Backs c -> Some c | Unattached | Held -> None
let is_held t = t.attach = Held

let check_live t name = if t.destroyed then invalid_arg (name ^ ": destroyed ticket")

let check_held t name =
  match t.attach with
  | Held -> ()
  | Unattached | Backs _ -> invalid_arg (name ^ ": ticket not held")

(* A ticket's activity flip moves two things: its denomination's active
   amount (hence unit value), and — when the ticket backs a currency — that
   currency's value. Both get invalidated here, so the zero-crossing cascade
   below stales exactly the affected region of the graph. *)
let flip_invalidate sys t =
  invalidate sys t.denom;
  match t.attach with Backs c -> invalidate sys c | Unattached | Held -> ()

(* Whether the ticket belongs in its denomination's live list once
   active. *)
let[@inline] tracks_live t =
  (not t.denom.base_p) && match t.attach with Backs _ -> true | Unattached | Held -> false

(* Activation propagation (paper §4.4): activating a ticket raises its
   denomination's active amount; on a zero -> nonzero transition every
   backing ticket of that currency activates in turn, and symmetrically for
   deactivation. The backing walks are loops, not [iter_backing] over a
   partial application, so a cascade allocates nothing.

   These two functions are the only writers of [active], so they keep the
   live lists: a ticket links in before its activation's flip and unlinks
   after its deactivation's, so the flip's walk visits it either way, as a
   walk over every issued edge would. *)
let rec activate_ticket sys t =
  if not t.active then begin
    t.active <- true;
    if tracks_live t then link_live sys t.denom t.tkslot;
    flip_invalidate sys t;
    let c = t.denom in
    let was_zero = c.active_amount = 0 in
    c.active_amount <- c.active_amount + t.amount;
    if was_zero && c.active_amount > 0 then activate_backing sys c
  end

and activate_backing sys c =
  let s = ref c.backing_head in
  while !s >= 0 do
    let n = sys.b_next.(!s) in
    activate_ticket sys sys.tk_tab.(!s);
    s := n
  done

let rec deactivate_ticket sys t =
  if t.active then begin
    t.active <- false;
    flip_invalidate sys t;
    if tracks_live t then unlink_live sys t.denom t.tkslot;
    let c = t.denom in
    let was_positive = c.active_amount > 0 in
    c.active_amount <- c.active_amount - t.amount;
    assert (c.active_amount >= 0);
    if was_positive && c.active_amount = 0 then deactivate_backing sys c
  end

and deactivate_backing sys c =
  let s = ref c.backing_head in
  while !s >= 0 do
    let n = sys.b_next.(!s) in
    deactivate_ticket sys sys.tk_tab.(!s);
    s := n
  done

let set_amount sys t new_amount =
  check_live t "Funding.set_amount";
  check_amount "Funding.set_amount" new_amount;
  if t.active then begin
    flip_invalidate sys t;
    let c = t.denom in
    let old_sum = c.active_amount in
    let new_sum = old_sum - t.amount + new_amount in
    t.amount <- new_amount;
    c.active_amount <- new_sum;
    if old_sum = 0 && new_sum > 0 then activate_backing sys c
    else if old_sum > 0 && new_sum = 0 then deactivate_backing sys c
  end
  else t.amount <- new_amount;
  close_batch sys

(* A backing edge [currency <- ticket] makes [currency]'s value depend on
   the ticket's denomination. Funding [c] with a ticket denominated in [d]
   is cyclic iff [d]'s value already depends on [c]. The walk marks each
   visited currency with the check's stamp, so shared sub-graphs (diamonds)
   are visited once, and it is a top-level loop: a [fund] (one per ticket
   transfer) allocates nothing here. *)
let rec depends_on sys funded c =
  c == funded
  || c.visit <> sys.stamp
     && begin
          c.visit <- sys.stamp;
          backing_depends sys funded c.backing_head
        end

and backing_depends sys funded s =
  s >= 0
  && (depends_on sys funded sys.tk_tab.(s).denom
     || backing_depends sys funded sys.b_next.(s))

let would_cycle sys ~funded ~denom =
  sys.stamp <- sys.stamp + 1;
  depends_on sys funded denom

let fund sys ~ticket ~currency =
  check_live ticket "Funding.fund";
  if currency.cslot < 0 then invalid_arg "Funding.fund: dead currency";
  (match ticket.attach with
  | Unattached -> ()
  | Backs _ | Held -> invalid_arg "Funding.fund: ticket already attached");
  if currency.cid = ticket.denom.cid then
    invalid_arg "Funding.fund: ticket cannot fund its own denomination";
  if would_cycle sys ~funded:currency ~denom:ticket.denom then
    raise
      (Cycle
         (Printf.sprintf "funding %s with a ticket denominated in %s"
            currency.cname ticket.denom.cname));
  ticket.attach <- Backs currency;
  link_backing sys currency ticket.tkslot;
  invalidate sys currency;
  if currency.active_amount > 0 then activate_ticket sys ticket;
  close_batch sys

let unfund sys t =
  check_live t "Funding.unfund";
  match t.attach with
  | Backs c ->
      deactivate_ticket sys t;
      unlink_backing sys c t.tkslot;
      t.attach <- Unattached;
      invalidate sys c;
      close_batch sys
  | Unattached | Held -> invalid_arg "Funding.unfund: ticket not backing"

let hold sys t =
  check_live t "Funding.hold";
  (match t.attach with
  | Unattached | Held -> ()
  | Backs _ -> invalid_arg "Funding.hold: ticket is backing a currency");
  t.attach <- Held;
  activate_ticket sys t;
  close_batch sys

let suspend sys t =
  check_live t "Funding.suspend";
  check_held t "Funding.suspend";
  deactivate_ticket sys t;
  close_batch sys

let resume sys t =
  check_live t "Funding.resume";
  check_held t "Funding.resume";
  activate_ticket sys t;
  close_batch sys

let release sys t =
  check_live t "Funding.release";
  check_held t "Funding.release";
  deactivate_ticket sys t;
  t.attach <- Unattached;
  close_batch sys

let destroy_ticket sys t =
  check_live t "Funding.destroy_ticket";
  (match t.attach with
  | Backs _ -> unfund sys t
  | Held -> release sys t
  | Unattached -> ());
  unlink_issued sys t.denom t.tkslot;
  Slots.release sys.tk_slots t.tkslot;
  t.tkslot <- -1;
  t.destroyed <- true;
  close_batch sys

(* --- valuation ----------------------------------------------------------

   Reads revalidate lazily: a stale currency recomputes its value from its
   backing tickets, pulling (and caching) the unit values of their
   denominations on the way down. A quiescent graph is therefore valued
   once, and each mutation only forces recomputation of the currencies it
   actually dirtied. The arithmetic (fold order over the backing edges,
   value/active division) is identical to a from-scratch walk, so cached
   results are bit-for-bit equal to uncached ones. *)

let rec ensure sys c =
  (* Seed with 0 so a (dynamically created, normally impossible) cycle
     terminates instead of looping. *)
  c.cache_ok <- true;
  let slot = c.cslot in
  if c.base_p then begin
    sys.vals.(slot) <- float_of_int c.active_amount;
    sys.units.(slot) <- 1.
  end
  else begin
    sys.vals.(slot) <- 0.;
    sys.units.(slot) <- 0.;
    (* Left fold, head (most recent edge) first: the same float
       accumulation order as the historical list fold. The denomination's
       unit value is read straight from [units] after revalidating it, so
       the fold never boxes an intermediate. *)
    let v = ref 0. in
    let s = ref c.backing_head in
    while !s >= 0 do
      let t = sys.tk_tab.(!s) in
      if t.active then begin
        let d = t.denom in
        let u =
          if d.base_p then 1.
          else begin
            if not d.cache_ok then ensure sys d;
            sys.units.(d.cslot)
          end
        in
        v := !v +. (float_of_int t.amount *. u)
      end;
      s := sys.b_next.(!s)
    done;
    sys.vals.(slot) <- !v;
    sys.units.(slot) <-
      (if c.active_amount = 0 then 0. else !v /. float_of_int c.active_amount)
  end

let[@inline] validate sys c = if not c.cache_ok then ensure sys c

(* No zero-active shortcut here: a read must leave the currency validated
   (stop-early invalidation relies on "a valid currency has valid
   supports"), and [ensure] already caches unit value 0 in that case. A
   removed currency has no backing and no issued tickets, so its value and
   unit value are 0; it no longer owns a cache slot. *)
let unit_val sys c =
  if c.base_p then 1.
  else if c.cslot < 0 then 0.
  else begin
    validate sys c;
    sys.units.(c.cslot)
  end

(* The value sits unboxed in [vals], so a call that returns it boxes a
   fresh float; [@inline] lets a cross-module caller compiled against this
   module's .cmx keep it in a register instead. *)
let[@inline] value_of_currency sys c =
  if c.cslot < 0 then 0.
  else begin
    validate sys c;
    Array.unsafe_get sys.vals c.cslot
  end

let value_table sys c =
  validate sys c;
  sys.vals

let unit_table sys c =
  if not c.base_p then validate sys c;
  sys.units

let values sys = sys.vals
let cache_valid c = c.cache_ok
let edges_walked sys = sys.edges_walked
let hook_calls sys = sys.hook_calls

(* The denomination is validated even when the ticket is inactive: a
   consumer that caches this 0 must be told (through its watch) when the
   ticket's activation later makes it worth something, and watches only
   hear of valid -> stale flips. *)
let value_of_ticket sys t =
  let u = unit_val sys t.denom in
  if t.active then float_of_int t.amount *. u else 0.

let ticket_value sys t = value_of_ticket sys t
let[@inline] currency_value sys c = value_of_currency sys c
let unit_value sys c = unit_val sys c

(* From-scratch valuation with a private memo, bypassing the caches: the
   reference implementation [check_invariants] audits the caches against. *)
let uncached_currency_value sys c =
  let memo = Hashtbl.create 32 in
  let rec unit c =
    if c.base_p then 1.
    else if c.active_amount = 0 then 0.
    else
      match Hashtbl.find_opt memo c.cid with
      | Some x -> x
      | None ->
          Hashtbl.replace memo c.cid 0.;
          let x = value c /. float_of_int c.active_amount in
          Hashtbl.replace memo c.cid x;
          x
  and value c =
    if c.base_p then float_of_int c.active_amount
    else begin
      let acc = ref 0. in
      let s = ref c.backing_head in
      while !s >= 0 do
        let t = sys.tk_tab.(!s) in
        if t.active then acc := !acc +. (float_of_int t.amount *. unit t.denom);
        s := sys.b_next.(!s)
      done;
      !acc
    end
  in
  value c

let check_invariants sys =
  let fail fmt = Printf.ksprintf failwith fmt in
  Slots.iter_live sys.cur_slots (fun slot ->
      let c = sys.cur_tab.(slot) in
      if c.cslot < 0 then fail "dead currency %s in arena" c.cname;
      if c.cslot <> slot then
        fail "currency %s: slot field %d <> arena slot %d" c.cname c.cslot slot;
      (* Active amount equals sum of active issued ticket amounts. *)
      let sum = ref 0 in
      iter_issued sys c (fun t -> if t.active then sum := !sum + t.amount);
      if !sum <> c.active_amount then
        fail "currency %s: active_amount %d <> recomputed %d" c.cname
          c.active_amount !sum;
      (* A valid cache must agree exactly with a from-scratch valuation. *)
      if c.cache_ok then begin
        let fresh = uncached_currency_value sys c in
        if sys.vals.(slot) <> fresh then
          fail "currency %s: cached value %g <> recomputed %g" c.cname
            sys.vals.(slot) fresh;
        let fresh_unit =
          if c.base_p then 1.
          else if c.active_amount = 0 then 0.
          else fresh /. float_of_int c.active_amount
        in
        if (not c.base_p) && sys.units.(slot) <> fresh_unit then
          fail "currency %s: cached unit value %g <> recomputed %g" c.cname
            sys.units.(slot) fresh_unit
      end;
      (* Attachment symmetry for backing tickets, plus slot coherence. *)
      iter_backing sys c (fun t ->
          (match t.attach with
          | Backs c' when c'.cid = c.cid -> ()
          | _ ->
              fail "currency %s: backing ticket %d not attached to it" c.cname
                t.tid);
          if t.destroyed then fail "currency %s: destroyed backing ticket" c.cname;
          (* Propagation: a backing ticket is active iff the funded currency
             has a nonzero active amount. *)
          if t.active <> (c.active_amount > 0) then
            fail "currency %s: backing ticket %d activity %b vs amount %d"
              c.cname t.tid t.active c.active_amount);
      iter_issued sys c (fun t ->
          if t.destroyed then fail "currency %s: destroyed issued ticket" c.cname;
          if t.tkslot < 0 || not (sys.tk_tab.(t.tkslot) == t) then
            fail "ticket %d: stale arena slot %d" t.tid t.tkslot;
          if t.denom.cid <> c.cid then
            fail "currency %s: issued ticket %d has wrong denomination" c.cname
              t.tid;
          match t.attach with
          | Unattached ->
              if t.active then fail "unattached ticket %d is active" t.tid
          | Held -> ()
          | Backs c' ->
              if not (exists_backing sys c' (fun b -> b.tid = t.tid)) then
                fail "ticket %d claims to back %s but is not listed" t.tid
                  c'.cname);
      (* Live list: exactly the active issued tickets that back a currency,
         in issued order, with symmetric links; base keeps none. *)
      let expected = ref [] in
      iter_issued sys c (fun t ->
          if tracks_live t && t.active then expected := t.tkslot :: !expected
          else if sys.l_prev.(t.tkslot) >= 0 || sys.l_next.(t.tkslot) >= 0 then
            fail "ticket %d: off its live list but still linked" t.tid);
      let expected = List.rev !expected in
      let bound = List.length expected in
      let got = ref [] and n = ref 0 and prev = ref (-1) in
      let s = ref sys.live_head.(slot) in
      while !s >= 0 && !n <= bound do
        if sys.l_prev.(!s) <> !prev then
          fail "currency %s: live link of slot %d points back at %d, not %d"
            c.cname !s sys.l_prev.(!s) !prev;
        got := !s :: !got;
        incr n;
        prev := !s;
        s := sys.l_next.(!s)
      done;
      if List.rev !got <> expected then
        fail "currency %s: live list [%s] <> active backing issued [%s]" c.cname
          (String.concat ";" (List.rev_map string_of_int !got))
          (String.concat ";" (List.map string_of_int expected));
      (* Acyclicity: depth-first walk with a white/grey/black marking, so
         shared sub-graphs are visited once instead of once per path. *)
      let color = Hashtbl.create 16 in
      let rec walk c' =
        match Hashtbl.find_opt color c'.cid with
        | Some `Done -> ()
        | Some `On_path -> fail "cycle through currency %s" c'.cname
        | None ->
            Hashtbl.replace color c'.cid `On_path;
            iter_backing sys c' (fun b -> walk b.denom);
            Hashtbl.replace color c'.cid `Done
      in
      walk c)

let pp_ticket fmt t =
  Format.fprintf fmt "#%d %d.%s%s%s" t.tid t.amount t.denom.cname
    (if t.active then " [active]" else "")
    (match t.attach with
    | Unattached -> ""
    | Held -> " held"
    | Backs c -> " -> " ^ c.cname)

let pp_currency sys fmt c =
  Format.fprintf fmt "@[<v 2>currency %s (active %d)@,issued: %a@,backing: %a@]"
    c.cname c.active_amount
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_ticket)
    (issued_tickets sys c)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_ticket)
    (backing_tickets sys c)

let to_dot sys =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph funding {\n  rankdir=TB;\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d [shape=box, label=\"%s\\nactive %d\"];\n" c.cid
           c.cname c.active_amount))
    (currencies sys);
  List.iter
    (fun c ->
      iter_issued sys c (fun t ->
          let style = if t.active then "solid" else "dashed" in
          match t.attach with
          | Backs target ->
              Buffer.add_string buf
                (Printf.sprintf "  c%d -> c%d [label=\"%d.%s\", style=%s];\n"
                   c.cid target.cid t.amount c.cname style)
          | Held ->
              Buffer.add_string buf
                (Printf.sprintf
                   "  t%d [shape=ellipse, label=\"ticket %d.%s\"];\n  c%d -> t%d [style=%s];\n"
                   t.tid t.amount c.cname c.cid t.tid style)
          | Unattached -> ()))
    (currencies sys);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_system fmt sys =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_currency sys))
    (currencies sys)
