open Lotto_sim.Types
module F = Lotto_tickets.Funding
module D = Lotto_draw.Draw
module Sh = Lotto_draw.Shard_tree
module Rng = Lotto_prng.Rng

type mode = List_mode | Tree_mode

let draw_mode = function List_mode -> D.List | Tree_mode -> D.Tree

(* Face amount of every thread's competing ticket. The value is arbitrary:
   a thread currency's worth flows through whatever single ticket is active
   in it, so only the amount's positivity matters. *)
let competing_amount = 1000

type tstate = {
  th : thread;
  cur : F.currency;
  competing : F.ticket;
  dh : thread option D.handle;
      (* the thread's one draw handle, allocated with its state and kept
         for life: block/wake, dispatch and migration recycle it through
         {!D.remove}/{!D.readd_at}, so neither the quantum cycle nor a
         block/wake cycle allocates. Its client is the preallocated
         [Some th] that a decision returns, so a drawn slot resolves to
         the winner without reading this record. *)
  mutable donations : (int * F.ticket) list; (* dst thread id -> transfer *)
  (* --- sharded-mode state (unused when [shards = 0]) ----------------- *)
  mutable shard : int; (* owning shard; -1 until first placement *)
  mutable counted : bool;
      (* this thread's [wlast] is accumulated in the shard tree: true for
         runnable *and* dispatched (on-CPU) threads, false while blocked —
         so a running thread still attracts rebalancing pressure to its
         shard but can never itself be drawn, stolen or migrated *)
}

(* [flags] bits, by thread slot. *)
let in_draw_bit = 1 (* live in its draw (its shard's, when sharded) *)
let pending_bit = 2 (* queued for a scoped weight refresh *)

(* Per-thread and per-currency state lives in arrays indexed by the dense
   arena handles the kernel and the funding system hand out ([thread.tslot]
   and {!F.currency_slot}) instead of id-keyed hashtables: a lookup is one
   bounds check and a load. Slots are recycled after death, so every read
   through [st_tab]/[by_cslot] guards with a physical-equality check on the
   stored thread/currency, and detach resets the flat entries.

   What a decision reads per thread is flat, in arrays indexed by thread
   slot, so the quiescent [account] never touches a record: [flags] and
   [wins] (the cached weight inputs). At 10^5 threads every record on that
   path is a likely cache miss. *)
type t = {
  mode : mode;
  rng : Rng.t;
  system : F.system;
  mutable st_tab : tstate option array; (* by thread slot *)
  mutable by_cslot : tstate option array; (* by thread-currency slot *)
  mutable flags : int array; (* by thread slot: [in_draw_bit], [pending_bit] *)
  mutable wins : float array;
      (* by thread slot [i], two cells: [2i] the currency value and
         [2i + 1] the compensation factor behind the last weight written
         to the draw. The inputs are cached separately so [account] can
         compare each against a value read in place (the funding system's
         flat cache, the thread's compensate field) — comparing the
         recomputed product would box the fresh float on every decision;
         adjacent, they usually share a cache line *)
  mutable wlast : float array; (* by thread slot: the last weight written
                                   to the thread's draw. Kept flat so
                                   every write and shard-mass delta stays
                                   unboxed; the draw and the shard tree
                                   read it through their [_at] entry
                                   points *)
  fscratch : float array; (* one cell: a shard mass on its way to
                             {!Sh.adjust_at} or back from {!Sh.get_at}
                             and {!Sh.total_at} *)
  mutable pending : tstate option array;
      (* dirtied thread currencies awaiting a scoped re-weigh, insertion
         order; cells hold the [Some s] already stored in [by_cslot] and
         are reset to [None] when drained *)
  mutable n_pending : int;
  draw : thread option D.t;
  scratch : thread D.t; (* reusable waiter-pick draw, cleared between picks *)
  (* Round-robin fallback rings, one per shard (ring 0 when unsharded):
     intrusive doubly-linked lists over thread slots, so detach unlinks a
     dead thread in O(1) and no ring keeps it reachable. *)
  mutable ring_of : int array;
      (* by thread slot: the ring holding the thread, -1 for none. When
         sharded, a migrated thread is handed to its new ring lazily, on
         pop, so migration itself never touches the rings (the one-ring
         invariant) *)
  mutable rprev : int array; (* by thread slot; -1 = none *)
  mutable rnext : int array;
  rhead : int array; (* by ring; -1 = empty *)
  rtail : int array;
  (* --- per-CPU lottery shards (empty when [shards = 0]) -------------- *)
  shards : int; (* 0 = the single-draw path above *)
  sdraws : thread option D.t array; (* one draw structure per virtual CPU *)
  stree : Sh.t; (* partial-sum tree over per-shard ticket masses *)
  mutable migration_enabled : bool;
  mutable placement_hook : (thread -> int) option;
  mutable migrations : int;
  mutable steals : int;
  use_compensation : bool;
  mutable draws : int;
  mutable scoped_updates : int;
  mutable profiler : Lotto_obs.Profile.t option;
      (* when set, valuation (pending-weight flush) and draw host-clock
         costs are recorded per select *)
}

let ensure_cap arr n =
  let len = Array.length arr in
  if n < len then arr
  else begin
    let a = Array.make (max 16 (max (n + 1) (2 * len))) None in
    Array.blit arr 0 a 0 len;
    a
  end

let ensure_capv arr n v =
  let len = Array.length arr in
  if n < len then arr
  else begin
    let a = Array.make (max 16 (max (n + 1) (2 * len))) v in
    Array.blit arr 0 a 0 len;
    a
  end

let slot_get arr slot =
  if slot < 0 || slot >= Array.length arr then None else arr.(slot)

(* The guarded lookups: a hit only counts when the occupant is the same
   record the state was created for. The [as]-patterns return the option
   already sitting in the table — rebuilding [Some s] here would charge
   every accounting call two minor words. *)
let find_state t (th : thread) =
  match slot_get t.st_tab th.tslot with
  | Some s as o when s.th == th -> o
  | _ -> None

let find_by_currency t c =
  match slot_get t.by_cslot (F.currency_slot c) with
  | Some s as o when s.cur == c -> o
  | _ -> None

(* The state of the thread at a slot the scheduler itself holds (a drawn
   client, a ring entry): present by construction. *)
let st_at t i =
  match t.st_tab.(i) with Some s -> s | None -> assert false

let[@inline] in_draw t (s : tstate) = t.flags.(s.th.tslot) land in_draw_bit <> 0

let[@inline] set_in_draw t (s : tstate) b =
  let i = s.th.tslot in
  t.flags.(i) <-
    (if b then t.flags.(i) lor in_draw_bit
     else t.flags.(i) land lnot in_draw_bit)

let push_pending t s o =
  let i = s.th.tslot in
  t.flags.(i) <- t.flags.(i) lor pending_bit;
  let n = t.n_pending in
  t.pending <- ensure_cap t.pending n;
  t.pending.(n) <- o;
  t.n_pending <- n + 1

(* --- fallback rings ----------------------------------------------------- *)

let ring_push t r i =
  let last = t.rtail.(r) in
  t.rprev.(i) <- last;
  t.rnext.(i) <- -1;
  if last >= 0 then t.rnext.(last) <- i else t.rhead.(r) <- i;
  t.rtail.(r) <- i;
  t.ring_of.(i) <- r

let ring_unlink t i =
  let r = t.ring_of.(i) in
  let p = t.rprev.(i) and n = t.rnext.(i) in
  if p >= 0 then t.rnext.(p) <- n else t.rhead.(r) <- n;
  if n >= 0 then t.rprev.(n) <- p else t.rtail.(r) <- p;
  t.ring_of.(i) <- -1

let create ?(mode = List_mode) ?(use_compensation = true) ?(shards = 0) ~rng () =
  if shards < 0 then invalid_arg "Lottery_sched.create: shards < 0";
  let t =
    {
      mode;
      rng;
      system = F.create_system ();
      st_tab = [||];
      by_cslot = [||];
      flags = [||];
      wins = [||];
      wlast = [||];
      fscratch = [| 0. |];
      pending = [||];
      n_pending = 0;
      draw = D.of_mode (draw_mode mode);
      scratch = D.of_mode (draw_mode mode);
      ring_of = [||];
      rprev = [||];
      rnext = [||];
      rhead = Array.make (max 1 shards) (-1);
      rtail = Array.make (max 1 shards) (-1);
      shards;
      sdraws = Array.init shards (fun _ -> D.of_mode (draw_mode mode));
      stree = Sh.create ~shards:(max 1 shards);
      migration_enabled = true;
      placement_hook = None;
      migrations = 0;
      steals = 0;
      use_compensation;
      draws = 0;
      scoped_updates = 0;
      profiler = None;
    }
  in
  (* Scoped change tracking: every funding mutation — ours or a caller's
     going straight through the Funding API — reports the currencies it
     dirtied; we record the ones that belong to draw clients and revalue
     exactly those before the next lottery. Both closures are built here,
     once, so an event costs no allocation. This is also what lets
     [account] trust a thread's cached value unvalidated: every
     valid -> stale flip of a thread currency passes through here and
     sets the thread's [pending_bit]. *)
  let note c =
    match find_by_currency t c with
    | Some s as o ->
        if t.flags.(s.th.tslot) land pending_bit = 0 then push_pending t s o
    | None -> ()
  in
  ignore (F.on_change t.system (fun ch -> F.iter_changed ch note));
  t

let funding t = t.system
let base_currency t = F.base t.system
let make_currency t name = F.make_currency t.system ~name

let state t th =
  match find_state t th with
  | Some s -> s
  | None ->
      if th.tslot < 0 then
        invalid_arg "Lottery_sched.state: thread already reaped";
      let cur =
        F.make_currency t.system ~name:(Printf.sprintf "thread:%d:%s" th.id th.name)
      in
      let competing = F.issue t.system ~currency:cur ~amount:competing_amount in
      let s =
        {
          th;
          cur;
          competing;
          dh = D.handle t.draw (Some th);
          donations = [];
          shard = -1;
          counted = false;
        }
      in
      let i = th.tslot in
      t.st_tab <- ensure_cap t.st_tab i;
      t.flags <- ensure_capv t.flags i 0;
      t.wins <- ensure_capv t.wins ((2 * i) + 1) 0.;
      t.wlast <- ensure_capv t.wlast i 0.;
      t.ring_of <- ensure_capv t.ring_of i (-1);
      t.rprev <- ensure_capv t.rprev i (-1);
      t.rnext <- ensure_capv t.rnext i (-1);
      t.flags.(i) <- 0;
      t.wlast.(i) <- 0.;
      t.ring_of.(i) <- -1;
      t.st_tab.(i) <- Some s;
      let cs = F.currency_slot cur in
      t.by_cslot <- ensure_cap t.by_cslot cs;
      t.by_cslot.(cs) <- Some s;
      s

let thread_currency t th = (state t th).cur

(* Draw weight: the thread currency's active backing value, times the
   kernel-maintained compensation factor (when enabled). Valuations are
   cached incrementally inside Funding, so this is O(1) on a quiescent
   graph. *)
let[@inline] factor t (th : thread) =
  if t.use_compensation then th.compensate else 1.
let value_of t s = F.currency_value t.system s.cur *. factor t s.th
let thread_value t th = value_of t (state t th)

(* The thread currency's value, read out of the funding system's flat
   cache after revalidating it: no float crosses a call, so none is boxed,
   inlined or not. *)
let[@inline] cur_value t s =
  (F.value_table t.system s.cur).(F.currency_slot s.cur)

(* Record the two inputs of a weight being written, so [account] can
   later detect "nothing changed" without recomputing the product. *)
let[@inline] set_inputs t i cv f =
  t.wins.(2 * i) <- cv;
  t.wins.((2 * i) + 1) <- f

(* The one weight-write of the unsharded draw path. *)
let write_weight t s =
  let i = s.th.tslot in
  let cv = cur_value t s in
  let f = factor t s.th in
  t.wlast.(i) <- cv *. f;
  D.set_weight_at t.draw s.dh t.wlast i;
  set_inputs t i cv f

(* --- per-CPU shards: mass accounting, migration, stealing -------------- *)

(* The shard tree tracks the live ticket mass *assigned* to each shard:
   runnable threads waiting in the shard's draw plus the thread currently
   dispatched on that CPU (dequeued but still consuming the shard's share).
   Blocked threads carry no mass. Tracking assignment rather than draw
   occupancy keeps the steady-state quantum cycle (dispatch dequeue +
   account re-enqueue) entirely off the tree: only block/wake, funding
   changes and migrations touch it. *)
let[@inline] stree_adjust t i delta =
  t.fscratch.(0) <- delta;
  Sh.adjust_at t.stree i t.fscratch 0

(* Take a drawn thread off its shard's structure for the duration of its
   slice. Its mass stays counted; the recycled handle makes the later
   re-enqueue allocation-free. *)
let[@inline] dispatch_dequeue t s =
  D.remove t.sdraws.(s.shard) s.dh;
  set_in_draw t s false

(* (Re-)insert a thread into its shard's draw. The weight inputs are
   compared against the cached copies exactly as [account] does on the
   unsharded path: on a quiescent graph nothing changed and the re-insert
   reuses the product of the last write ([wlast]), so a compute-bound
   thread's dispatch/re-enqueue cycle allocates nothing. *)
let sh_enqueue t s =
  if not (in_draw t s) then begin
    let i = s.th.tslot in
    let cv = cur_value t s in
    let f = factor t s.th in
    if cv <> t.wins.(2 * i) || f <> t.wins.((2 * i) + 1) then begin
      let nw = cv *. f in
      set_inputs t i cv f;
      if s.counted then stree_adjust t s.shard (nw -. t.wlast.(i));
      t.wlast.(i) <- nw;
      t.scoped_updates <- t.scoped_updates + 1
    end;
    D.readd_at t.sdraws.(s.shard) s.dh t.wlast i;
    set_in_draw t s true;
    if not s.counted then begin
      stree_adjust t s.shard t.wlast.(i);
      s.counted <- true
    end;
    if t.ring_of.(i) < 0 then ring_push t s.shard i
  end

(* Revalue a sharded thread's draw weight in place (the scoped-refresh
   write). Dequeued threads are skipped: their caches disagree with the
   funding graph until [sh_enqueue] reconciles them on re-insert. *)
let write_weight_sh t s =
  if in_draw t s then begin
    let i = s.th.tslot in
    let cv = cur_value t s in
    let f = factor t s.th in
    let nw = cv *. f in
    set_inputs t i cv f;
    if s.counted then stree_adjust t s.shard (nw -. t.wlast.(i));
    t.wlast.(i) <- nw;
    D.set_weight_at t.sdraws.(s.shard) s.dh t.wlast i
  end

(* Move a thread between shards: O(1) detach from the source structure,
   O(log n) re-insert into the destination, both on the existing handle
   record — zero allocation. Fallback-ring entries are left where they are
   (the one-ring invariant): the stale entry hands the thread to its new
   ring lazily when popped. *)
let migrate t s ~dst =
  if dst < 0 || dst >= t.shards then invalid_arg "Lottery_sched: bad shard";
  if s.shard <> dst then begin
    let i = s.th.tslot in
    if in_draw t s then begin
      D.remove t.sdraws.(s.shard) s.dh;
      D.readd_at t.sdraws.(dst) s.dh t.wlast i
    end;
    if s.counted then begin
      stree_adjust t s.shard (-.t.wlast.(i));
      stree_adjust t dst t.wlast.(i)
    end;
    s.shard <- dst;
    t.migrations <- t.migrations + 1
  end

(* Ticket-weighted placement: a new thread lands on the least-loaded shard
   (by live ticket mass, lowest id on ties), unless a placement hook pins
   it somewhere specific. *)
let place t s =
  if s.shard < 0 then
    s.shard <-
      (match t.placement_hook with
      | None -> Sh.min_shard t.stree
      | Some f ->
          let i = f s.th in
          if i < 0 || i >= t.shards then
            invalid_arg "Lottery_sched: placement hook returned a bad shard";
          i)

(* The state behind a drawn client (the winner's [Some th]). *)
let drawn_state t = function Some th -> st_at t th.tslot | None -> assert false

(* Hysteresis rebalance, run at every scheduling decision: trigger when
   the richest or poorest shard strays more than [imbalance_band] x the
   fair share from it, then migrate ticket-weighted picks rich -> poor
   until back within half the band (or the move budget runs out). The
   no-overshoot rule — the rich shard must stay at least as rich as the
   poor one becomes — stops a single heavy thread from ping-ponging
   between shards. On a balanced system this is two O(shards) scans and
   no draw. *)
let max_rebalance_moves = 8
let imbalance_band = 0.25 (* rebalance trigger, as a fraction of total/N *)

let rebalance t =
  let cell = t.fscratch in
  Sh.total_at t.stree cell 0;
  let tot = cell.(0) in
  if tot > 0. then begin
    let ideal = tot /. float_of_int t.shards in
    let full_band = imbalance_band *. ideal in
    let thresh = ref full_band in
    let moves = ref 0 in
    let go = ref true in
    while !go && !moves < max_rebalance_moves do
      go := false;
      let rich = Sh.max_shard t.stree in
      let poor = Sh.min_shard t.stree in
      Sh.get_at t.stree rich cell 0;
      let mr = cell.(0) in
      Sh.get_at t.stree poor cell 0;
      let mp = cell.(0) in
      if rich <> poor && (mr -. ideal > !thresh || ideal -. mp > !thresh) then begin
        let w = D.draw_slot t.sdraws.(rich) t.rng in
        if w >= 0 then begin
          let s = drawn_state t (D.client_at t.sdraws.(rich) w) in
          let ws = t.wlast.(s.th.tslot) in
          if mr -. ws >= mp +. ws then begin
            migrate t s ~dst:poor;
            thresh := full_band /. 2.;
            incr moves;
            go := true
          end
        end
      end
    done
  end

(* Work stealing, tried when a CPU's own shard has no funded runnable
   thread: pick a source shard ticket-weighted through the shard tree,
   draw a victim from it, and migrate it here. One steal per empty
   decision keeps the RNG consumption bounded and deterministic. Returns
   the stolen thread's slot, or -1: the total comes back through
   [fscratch] and the deviate crosses to the shard tree as its raw bits,
   so a steal boxes nothing. *)
let steal t ~dst =
  if not t.migration_enabled then -1
  else begin
    Sh.total_at t.stree t.fscratch 0;
    if t.fscratch.(0) <= 0. then -1
    else begin
      let src = Sh.pick t.stree ~bits:(Rng.bits53 t.rng) in
      if src < 0 || src = dst then -1
      else begin
        let w = D.draw_slot t.sdraws.(src) t.rng in
        if w < 0 then -1
        else begin
          let s = drawn_state t (D.client_at t.sdraws.(src) w) in
          migrate t s ~dst;
          t.steals <- t.steals + 1;
          s.th.tslot
        end
      end
    end
  end

(* --- funding API ------------------------------------------------------- *)

let fund_currency t ~target ~amount ~from =
  let ticket = F.issue t.system ~currency:from ~amount in
  F.fund t.system ~ticket ~currency:target;
  ticket

let fund_thread t th ~amount ~from =
  fund_currency t ~target:(thread_currency t th) ~amount ~from

let set_ticket_amount t ticket amount = F.set_amount t.system ticket amount
let destroy_ticket t ticket = F.destroy_ticket t.system ticket

(* --- scheduler callbacks ------------------------------------------------ *)

(* Insertion computes the weight fresh (validating the thread currency's
   caches), so a wake needs no follow-up event flush: it is itself the one
   per-thread weight write of the block/wake path — count it as such. The
   thread's one handle is re-inserted on every wake, and the weight travels
   through [wlast], so a wake allocates nothing. *)
let add_to_draw t s =
  if not (in_draw t s) then begin
    let i = s.th.tslot in
    let cv = cur_value t s in
    let f = factor t s.th in
    t.wlast.(i) <- cv *. f;
    D.readd_at t.draw s.dh t.wlast i;
    set_in_draw t s true;
    set_inputs t i cv f;
    t.scoped_updates <- t.scoped_updates + 1;
    if t.ring_of.(i) < 0 then ring_push t 0 i
  end

let remove_from_draw t s =
  if in_draw t s then begin
    D.remove t.draw s.dh;
    set_in_draw t s false
  end

let ready t th =
  let s = state t th in
  if not (F.is_active s.competing) then F.resume t.system s.competing;
  if t.shards > 0 then begin
    place t s;
    sh_enqueue t s
  end
  else add_to_draw t s

let attach t th =
  let s = state t th in
  (* competing ticket becomes held (and active) the first time *)
  F.hold t.system s.competing;
  if t.shards > 0 then begin
    place t s;
    sh_enqueue t s
  end
  else add_to_draw t s

let unready t th =
  let s = state t th in
  F.suspend t.system s.competing;
  if t.shards > 0 then begin
    if s.counted then begin
      stree_adjust t s.shard (-.t.wlast.(th.tslot));
      s.counted <- false
    end;
    if in_draw t s then dispatch_dequeue t s
  end
  else remove_from_draw t s

let rec destroy_donations sys = function
  | [] -> ()
  | (_, ticket) :: rest ->
      F.destroy_ticket sys ticket;
      destroy_donations sys rest

let drop_donations t s =
  if s.donations <> [] then begin
    destroy_donations t.system s.donations;
    s.donations <- []
  end

(* Divided transfers (§3.1): each active donation ticket is denominated in
   the source's currency with the same face amount, so k concurrent
   transfers automatically split the source's value k ways — and when one
   is withdrawn the rest re-concentrate. *)
let donate t ~src ~dst =
  let s = state t src in
  let d = state t dst in
  let ticket = F.issue t.system ~currency:s.cur ~amount:competing_amount in
  F.fund t.system ~ticket ~currency:d.cur;
  s.donations <- (dst.id, ticket) :: s.donations

let revoke t ~src = drop_donations t (state t src)

let revoke_from t ~src ~dst =
  let s = state t src in
  match List.assoc_opt dst.id s.donations with
  | None -> ()
  | Some ticket ->
      F.destroy_ticket t.system ticket;
      s.donations <- List.remove_assoc dst.id s.donations

let detach t th =
  match find_state t th with
  | None -> ()
  | Some s ->
      if t.shards > 0 then begin
        if s.counted then begin
          stree_adjust t s.shard (-.t.wlast.(th.tslot));
          s.counted <- false
        end;
        if in_draw t s then dispatch_dequeue t s
      end
      else remove_from_draw t s;
      (* A dead entry would only be dropped when a fallback pop reaches
         it, which never happens while any thread is funded: unlink it
         now, so no ring keeps the thread reachable. The live entries
         keep their order. *)
      if t.ring_of.(th.tslot) >= 0 then ring_unlink t th.tslot;
      drop_donations t s;
      (* Other threads may still be donating to this one (e.g. blocked
         mutex waiters whose owner dies); clear their references before the
         backing sweep below destroys those tickets. A donation funding
         this thread is by construction a backing ticket of its currency
         denominated in the donor's thread currency, so walking the backing
         edges reaches exactly the donors — O(degree), not a sweep over
         every scheduler state. *)
      List.iter
        (fun b ->
          match find_by_currency t (F.denomination b) with
          | Some donor ->
              donor.donations <-
                List.filter (fun (_, d) -> not (d == b)) donor.donations
          | None -> ())
        (F.backing_tickets t.system s.cur);
      (* Tear down the thread currency: first any tickets still backing it
         (allocations from user currencies), then its issued tickets. *)
      List.iter
        (fun b -> F.destroy_ticket t.system b)
        (F.backing_tickets t.system s.cur);
      let cslot = F.currency_slot s.cur in
      F.destroy_ticket t.system s.competing;
      List.iter
        (fun i -> F.destroy_ticket t.system i)
        (F.issued_tickets t.system s.cur);
      F.remove_currency t.system s.cur;
      (* The teardown above may have re-flagged the thread pending; its
         buffer cell is skipped by identity when drained. *)
      t.flags.(th.tslot) <- 0;
      t.st_tab.(th.tslot) <- None;
      if cslot >= 0 && cslot < Array.length t.by_cslot then
        t.by_cslot.(cslot) <- None

(* Bring the draw in sync with the funding graph: revalue exactly the
   threads whose currencies the change events dirtied — O(changed) — in
   the order they were first dirtied. Blocked threads may still sit in the
   buffer; they are out of the draw, so they drain as no-ops, and so do
   detached ones, whose slot no longer holds them. Each drained cell goes
   back to [None], so the buffer never keeps a dead thread reachable. *)
let flush_pending t =
  for k = 0 to t.n_pending - 1 do
    match t.pending.(k) with
    | Some s ->
        t.pending.(k) <- None;
        let i = s.th.tslot in
        if i >= 0 then begin
          match t.st_tab.(i) with
          | Some s' when s' == s ->
              t.flags.(i) <- t.flags.(i) land lnot pending_bit;
              if in_draw t s then begin
                if t.shards > 0 then write_weight_sh t s else write_weight t s;
                t.scoped_updates <- t.scoped_updates + 1
              end
          | _ -> ()
        end
    | None -> ()
  done;
  t.n_pending <- 0

(* Unfunded threads never win a lottery (paper: zero tickets = starvation).
   To keep simulations with forgotten funding alive, fall back to
   round-robin among runnable threads when every runnable thread has zero
   weight. The ring holds every runnable thread once; stale entries (threads
   that blocked since being queued) are dropped lazily, so a pick is O(1)
   amortized. *)
let rec fallback_pick t =
  let i = t.rhead.(0) in
  if i < 0 then None
  else begin
    ring_unlink t i;
    let s = st_at t i in
    if not (in_draw t s) then fallback_pick t
    else begin
      ring_push t 0 i;
      D.client s.dh
    end
  end

(* Sharded fallback: the per-shard round-robin ring, with the one-ring
   invariant's lazy hand-off — an entry whose thread migrated away is
   pushed to its new shard's ring on pop rather than eagerly on migrate. *)
let rec sh_ring_pick t c =
  let i = t.rhead.(c) in
  if i < 0 then None
  else begin
    ring_unlink t i;
    let s = st_at t i in
    if not (in_draw t s) then
      (* blocked or dispatched: drop; re-enqueue re-rings it *)
      sh_ring_pick t c
    else if s.shard <> c then begin
      ring_push t s.shard i;
      sh_ring_pick t c
    end
    else begin
      ring_push t c i;
      Some s
    end
  end

let select t =
  t.draws <- t.draws + 1;
  (match t.profiler with
  | None -> flush_pending t
  | Some p ->
      let t0 = Lotto_obs.Profile.start p in
      flush_pending t;
      Lotto_obs.Profile.stop p Lotto_obs.Profile.Valuation t0);
  (* Slot-based draw: the winning slot resolves, in one load from the
     draw's flat client array, to the thread's preallocated [Some th] — no
     option, handle or scheduler record is read or built per decision. *)
  match t.profiler with
  | None ->
      let w = D.draw_slot t.draw t.rng in
      if w >= 0 then D.client_at t.draw w else fallback_pick t
  | Some p ->
      let t0 = Lotto_obs.Profile.start p in
      let w = D.draw_slot t.draw t.rng in
      Lotto_obs.Profile.stop p Lotto_obs.Profile.Draw t0;
      if w >= 0 then D.client_at t.draw w else fallback_pick t

(* One scheduling decision for virtual CPU [cpu] = shard [cpu]. The local
   draw is consulted first; an empty (or unfunded) shard tries a ticket-
   weighted steal, then its fallback ring. Whatever is returned is
   dequeued for the duration of its slice, so no other CPU of the same
   kernel round can dispatch it. *)
let select_sharded t ~cpu =
  t.draws <- t.draws + 1;
  (match t.profiler with
  | None -> flush_pending t
  | Some p ->
      let t0 = Lotto_obs.Profile.start p in
      flush_pending t;
      Lotto_obs.Profile.stop p Lotto_obs.Profile.Valuation t0);
  if t.migration_enabled && t.shards > 1 then rebalance t;
  let d = t.sdraws.(cpu) in
  let w =
    match t.profiler with
    | None -> D.draw_slot d t.rng
    | Some p ->
        let t0 = Lotto_obs.Profile.start p in
        let w = D.draw_slot d t.rng in
        Lotto_obs.Profile.stop p Lotto_obs.Profile.Draw t0;
        w
  in
  if w >= 0 then begin
    let some = D.client_at d w in
    dispatch_dequeue t (drawn_state t some);
    some
  end
  else begin
    let i = steal t ~dst:cpu in
    if i >= 0 then begin
      let s = st_at t i in
      dispatch_dequeue t s;
      D.client s.dh
    end
    else
      match sh_ring_pick t cpu with
      | Some s ->
          dispatch_dequeue t s;
          D.client s.dh
      | None -> None
  end

(* The thread's compensation factor was reset when its quantum started and
   possibly re-set when it blocked; refresh its draw weight so the next
   draw sees the current value. The fresh inputs are compared against the
   cached copies of the last write first: for a compute-bound thread on a
   quiescent funding graph nothing changed, and skipping [set_weight]
   keeps the comparison float unboxed (the cross-module call would box
   it). Skipping is exact, not approximate — a weight delta of zero leaves
   every backend bit-identical. *)
let account_slow t th =
  match find_state t th with
  | Some s when in_draw t s ->
      let i = th.tslot in
      if
        cur_value t s <> t.wins.(2 * i)
        || factor t th <> t.wins.((2 * i) + 1)
      then write_weight t s
  | _ -> ()

let account t th ~used:_ ~quantum:_ ~blocked:_ =
  if t.shards > 0 then begin
    (* The dispatched thread was dequeued at selection; put it back (with
       a freshness-checked weight) if its slice left it runnable. Blocked
       and exited threads were already handled by unready/detach. *)
    match find_state t th with
    | Some s when th.state = Runnable -> sh_enqueue t s
    | _ -> ()
  end
  else begin
    (* The quiescent check reads flat arrays only. A thread in its draw and
       not pending has a valid currency cache whose value its last weight
       write recorded — every write validates the cache, and every valid ->
       stale flip reaches [note], which flags the thread pending — so only
       the compensation factor can have moved ([check_flat_tables] audits
       the currency cell). Anything else takes the slow path, which writes
       exactly what it always wrote. *)
    let i = th.tslot in
    if
      not
        (i >= 0
        && i < Array.length t.flags
        && t.flags.(i) = in_draw_bit
        && factor t th = t.wins.((2 * i) + 1))
    then account_slow t th
  end

(* Lottery among blocked waiters (paper §6.1), weighted by each waiter's
   own funding. A waiter's thread currency is inactive while it blocks (its
   competing ticket is suspended, and condition/semaphore waiters donate to
   nobody), so we weigh its *potential* value: the sum of its backing
   tickets at current exchange rates — exactly what the waiter would be
   worth the moment it wakes. *)
let potential_value t v (s : tstate) =
  List.fold_left
    (fun acc b ->
      acc
      +. (float_of_int (F.amount b) *. F.Valuation.unit_value v (F.denomination b)))
    0.
    (F.backing_tickets t.system s.cur)

(* The pick goes through the same draw backend as the CPU lottery: the
   scheduler's scratch structure over the waiters, weighted by potential
   value and cleared again by the next pick. The list backend prepends, so
   waiters are inserted back-to-front to keep the scan in arrival order
   (matching the historical walk) without allocating a reversed list. *)
let pick_waiter t waiters =
  let v = F.Valuation.make t.system in
  let d = t.scratch in
  D.clear d;
  let insert w =
    ignore (D.add d ~client:w ~weight:(potential_value t v (state t w)))
  in
  (match t.mode with
  | Tree_mode -> List.iter insert waiters
  | List_mode ->
      let rec back_to_front = function
        | [] -> ()
        | w :: rest ->
            back_to_front rest;
            insert w
      in
      back_to_front waiters);
  let s = D.draw_slot d t.rng in
  if s < 0 then None else Some (D.client_at d s)

let sched t =
  {
    sched_name =
      (match t.mode with List_mode -> "lottery-list" | Tree_mode -> "lottery-tree");
    attach = attach t;
    detach = detach t;
    ready = ready t;
    unready = unready t;
    smp_ok = t.shards > 0;
    select =
      (if t.shards > 0 then fun ~cpu -> select_sharded t ~cpu
       else fun ~cpu:_ -> select t);
    account = (fun th ~used ~quantum ~blocked -> account t th ~used ~quantum ~blocked);
    donate = (fun ~src ~dst -> donate t ~src ~dst);
    revoke = (fun ~src -> revoke t ~src);
    revoke_from = (fun ~src ~dst -> revoke_from t ~src ~dst);
    pick_waiter = (fun ws -> pick_waiter t ws);
  }

let set_profiler t p = t.profiler <- p

(* --- auditable introspection -------------------------------------------- *)

(* Read-only: must go through [find_state], never [state], which would
   resurrect a currency for a detached (dead) thread. *)
let donation_targets t th =
  match find_state t th with
  | None -> []
  | Some s -> List.map fst s.donations

(* The flat per-thread tables against the records they describe. An entry
   that is in its draw and not pending is one the quiescent [account]
   trusts without validating, so it must belong to a live thread whose
   handle is live in its draw, its currency cache must be valid, and its
   cached inputs must be the currency's value and reproduce the draw's
   current weight bit for bit. A ring entry must belong to a live
   thread. *)
let check_flat_tables t out =
  let vf fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let bits = Int64.bits_of_float in
  let vals = F.values t.system in
  for i = 0 to Array.length t.flags - 1 do
    let fl = t.flags.(i) in
    match t.st_tab.(i) with
    | None ->
        if fl <> 0 then vf "slot %d: flags %d set but no thread state" i fl;
        if t.ring_of.(i) >= 0 then
          vf "slot %d: fallback ring %d holds a dead slot" i t.ring_of.(i)
    | Some s when fl = in_draw_bit ->
        let name = s.th.name in
        let d = if t.shards > 0 then t.sdraws.(max 0 s.shard) else t.draw in
        if s.th.tslot <> i || s.th.state = Zombie then
          vf "%s: trusted flat entry at slot %d is not a live thread" name i
        else if not (D.mem d s.dh) then
          vf "%s: trusted flat entry but its handle is not in its draw" name
        else if not (F.cache_valid s.cur) then
          vf "%s: in its draw and not pending but its currency cache is stale"
            name
        else begin
          let cv = t.wins.(2 * i) and f = t.wins.((2 * i) + 1) in
          let w = D.weight d s.dh in
          let held = vals.(F.currency_slot s.cur) in
          if bits cv <> bits held then
            vf "%s: cached currency value %h but the funding cache holds %h"
              name cv held;
          if bits (cv *. f) <> bits w || bits t.wlast.(i) <> bits w then
            vf "%s: cached inputs %h * %h (last write %h) but the draw weighs %h"
              name cv f t.wlast.(i) w
        end
    | Some _ -> ()
  done

let check_funding_coherence t threads =
  let out = ref [] in
  let vf fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  List.iter
    (fun th ->
      let sched_side = List.sort compare (donation_targets t th) in
      let kernel_side =
        List.sort compare (List.map (fun (d : thread) -> d.id) th.donating_to)
      in
      if sched_side <> kernel_side then
        vf "%s: kernel donating_to [%s] but scheduler holds transfers to [%s]"
          th.name
          (String.concat ";" (List.map string_of_int kernel_side))
          (String.concat ";" (List.map string_of_int sched_side)))
    threads;
  (* The kernel's thread list is live-only, so dead threads with leftover
     funding state can't be caught from [threads]; sweep our own table. A
     healthy detach clears the entry at death, so any surviving zombie (or
     slot/thread disagreement) is a leak. *)
  Array.iteri
    (fun i entry ->
      match entry with
      | Some s when s.th.state = Zombie ->
          vf "%s: dead thread still has scheduler funding state" s.th.name
      | Some s when s.th.tslot <> i ->
          vf "%s: scheduler state at slot %d but thread slot is %d" s.th.name i
            s.th.tslot
      | _ -> ())
    t.st_tab;
  check_flat_tables t out;
  (match F.check_invariants t.system with
  | () -> ()
  | exception Failure msg -> vf "funding graph: %s" msg);
  List.rev !out

let thread_entitlement t th =
  let v = F.Valuation.make t.system in
  potential_value t v (state t th)

let draw_weight t th =
  match find_state t th with
  | Some s when in_draw t s ->
      Some (D.weight (if t.shards > 0 then t.sdraws.(s.shard) else t.draw) s.dh)
  | _ -> None

let draws t = t.draws
let full_refreshes _ = 0
let scoped_weight_updates t = t.scoped_updates
let list_comparisons t = D.comparisons t.draw
let runnable_count t =
  if t.shards > 0 then begin
    let n = ref 0 in
    for i = 0 to t.shards - 1 do
      n := !n + D.size t.sdraws.(i)
    done;
    !n
  end
  else D.size t.draw

(* --- sharding introspection and control ---------------------------------- *)

let shards t = t.shards
let migrations t = t.migrations
let steals t = t.steals
let set_migration_enabled t b = t.migration_enabled <- b
let set_placement_hook t h = t.placement_hook <- h

let shard_of t th =
  match find_state t th with
  | Some s when t.shards > 0 -> s.shard
  | _ -> -1

let shard_ticket_mass t i =
  if t.shards <= 0 || i < 0 || i >= t.shards then
    invalid_arg "Lottery_sched.shard_ticket_mass: bad shard";
  Sh.get t.stree i

let force_migrate t th ~dst =
  if t.shards <= 0 then invalid_arg "Lottery_sched.force_migrate: not sharded";
  if dst < 0 || dst >= t.shards then
    invalid_arg "Lottery_sched.force_migrate: bad shard";
  match find_state t th with
  | Some s when s.shard >= 0 -> migrate t s ~dst
  | _ -> ()

(* Cross-checks the sharded bookkeeping: every live tstate sits in exactly
   the shard draw it claims ([D.mem] there and nowhere else), every shard-
   tree leaf matches the sum of [wlast] over the tstates counted into it
   (relative epsilon — the leaf is maintained by incremental float deltas),
   and flag coherence (in_draw implies counted implies placed). Read-only;
   safe between any two slices. *)
let check_sharding t =
  if t.shards <= 0 then []
  else begin
    let out = ref [] in
    let vf fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
    let sums = Array.make t.shards 0. in
    Array.iter
      (function
        | None -> ()
        | Some s ->
            let live = in_draw t s in
            if live && not s.counted then
              vf "%s: in a shard draw but not counted in the shard tree"
                s.th.name;
            if s.counted && (s.shard < 0 || s.shard >= t.shards) then
              vf "%s: counted but shard id %d out of range" s.th.name s.shard;
            if s.counted && s.shard >= 0 && s.shard < t.shards then
              sums.(s.shard) <- sums.(s.shard) +. t.wlast.(s.th.tslot);
            for i = 0 to t.shards - 1 do
              let here = D.mem t.sdraws.(i) s.dh in
              if live && i = s.shard && not here then
                vf "%s: claims shard %d but its handle is not there" s.th.name
                  s.shard;
              if here && ((not live) || i <> s.shard) then
                vf "%s: handle live in shard %d (claims %s)" s.th.name i
                  (if live then string_of_int s.shard else "none")
            done)
      t.st_tab;
    for i = 0 to t.shards - 1 do
      let leaf = Sh.get t.stree i in
      let scale = max 1. (max (abs_float leaf) (abs_float sums.(i))) in
      if abs_float (leaf -. sums.(i)) > 1e-6 *. scale then
        vf "shard %d: tree mass %.9g but counted tstates sum to %.9g" i leaf
          sums.(i)
    done;
    List.rev !out
  end
