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
  some : thread option; (* preallocated [Some th]: select returns this *)
  cur : F.currency;
  competing : F.ticket;
  mutable donations : (int * F.ticket) list; (* dst thread id -> transfer *)
  mutable dh : tstate D.handle option;
      (* allocated at the first enqueue and kept forever (the [Some] box
         included): block/wake, dispatch and migration recycle the same
         handle through {!D.remove}/{!D.readd_at}, so neither the quantum
         cycle nor a block/wake cycle allocates. [in_draw] carries
         liveness. *)
  mutable in_draw : bool; (* live in its draw (its shard's, when sharded) *)
  mutable in_fq : bool; (* queued in a round-robin fallback ring *)
  mutable in_pending : bool; (* queued for a scoped weight refresh *)
  (* --- sharded-mode state (unused when [shards = 0]) ----------------- *)
  mutable shard : int; (* owning shard; -1 until first placement *)
  mutable counted : bool;
      (* this thread's [wlast] is accumulated in the shard tree: true for
         runnable *and* dispatched (on-CPU) threads, false while blocked —
         so a running thread still attracts rebalancing pressure to its
         shard but can never itself be drawn, stolen or migrated *)
  mutable ring_of : int;
      (* which shard's fallback ring holds this entry (one-ring invariant:
         a migrated thread is handed to its new ring lazily, on pop, so
         migration itself never touches the rings) *)
}

(* Per-thread and per-currency state lives in arrays indexed by the dense
   arena handles the kernel and the funding system hand out ([thread.tslot]
   and {!F.currency_slot}) instead of id-keyed hashtables: a lookup is one
   bounds check and a load. Slots are recycled after death, so every read
   guards with a physical-equality check on the stored thread/currency —
   a stale entry for a previous occupant can never be mistaken for the
   current one (detach clears eagerly; the guard is belt-and-braces). *)
type t = {
  mode : mode;
  rng : Rng.t;
  system : F.system;
  mutable st_tab : tstate option array; (* by thread slot *)
  mutable by_cslot : tstate option array; (* by thread-currency slot *)
  mutable wcache : float array; (* by thread slot: currency value behind
                                   the last weight written to the draw *)
  mutable ccache : float array; (* by thread slot: compensation factor
                                   behind the last weight written. The two
                                   inputs are cached separately so
                                   [account] can compare each against a
                                   value read in place (the funding
                                   system's flat cache, the thread's
                                   compensate field) — comparing the
                                   recomputed product would box the fresh
                                   float on every decision *)
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
  draw : tstate D.t;
  scratch : thread D.t; (* reusable waiter-pick draw, cleared between picks *)
  fallback_q : tstate Queue.t; (* round-robin ring of runnable threads *)
  (* --- per-CPU lottery shards (empty when [shards = 0]) -------------- *)
  shards : int; (* 0 = the single-draw path above *)
  sdraws : tstate D.t array; (* one draw structure per virtual CPU *)
  srings : tstate Queue.t array; (* per-shard fallback rings *)
  stree : Sh.t; (* partial-sum tree over per-shard ticket masses *)
  imbalance_band : float; (* rebalance trigger, as a fraction of total/N *)
  mutable migration_enabled : bool;
  mutable placement_hook : (thread -> int) option;
  mutable migrations : int;
  mutable steals : int;
  quantum_fallback : bool;
  use_compensation : bool;
  mutable dirty : bool; (* ALL draw weights need recomputation *)
  mutable draws : int;
  mutable full_refreshes : int;
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

let ensure_capf arr n =
  let len = Array.length arr in
  if n < len then arr
  else begin
    let a = Array.make (max 16 (max (n + 1) (2 * len))) 0. in
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

let push_pending t s o =
  s.in_pending <- true;
  let n = t.n_pending in
  t.pending <- ensure_cap t.pending n;
  t.pending.(n) <- o;
  t.n_pending <- n + 1

let create ?(mode = List_mode) ?(quantum_fallback = true)
    ?(use_compensation = true) ?(shards = 0) ?(imbalance_band = 0.25) ~rng () =
  if shards < 0 then invalid_arg "Lottery_sched.create: shards < 0";
  if imbalance_band <= 0. then
    invalid_arg "Lottery_sched.create: imbalance_band <= 0";
  let t =
    {
      mode;
      rng;
      system = F.create_system ();
      st_tab = [||];
      by_cslot = [||];
      wcache = [||];
      ccache = [||];
      wlast = [||];
      fscratch = [| 0. |];
      pending = [||];
      n_pending = 0;
      draw = D.of_mode (draw_mode mode);
      scratch = D.of_mode (draw_mode mode);
      fallback_q = Queue.create ();
      shards;
      sdraws = Array.init shards (fun _ -> D.of_mode (draw_mode mode));
      srings = Array.init shards (fun _ -> Queue.create ());
      stree = Sh.create ~shards:(max 1 shards);
      imbalance_band;
      migration_enabled = true;
      placement_hook = None;
      migrations = 0;
      steals = 0;
      quantum_fallback;
      use_compensation;
      dirty = false;
      draws = 0;
      full_refreshes = 0;
      scoped_updates = 0;
      profiler = None;
    }
  in
  (* Scoped change tracking: every funding mutation — ours or a caller's
     going straight through the Funding API — reports the currencies it
     dirtied; we record the ones that belong to draw clients and revalue
     exactly those before the next lottery. Both closures are built here,
     once, so an event costs no allocation. *)
  let note c =
    match find_by_currency t c with
    | Some s as o -> if not s.in_pending then push_pending t s o
    | None -> ()
  in
  ignore (F.on_change t.system (fun ch -> F.iter_changed ch note));
  t

let funding t = t.system
let base_currency t = F.base t.system
let make_currency t name = F.make_currency t.system ~name
let mark_dirty t = t.dirty <- true

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
          some = Some th;
          cur;
          competing;
          donations = [];
          dh = None;
          in_draw = false;
          in_fq = false;
          in_pending = false;
          shard = -1;
          counted = false;
          ring_of = -1;
        }
      in
      t.st_tab <- ensure_cap t.st_tab th.tslot;
      t.wcache <- ensure_capf t.wcache th.tslot;
      t.ccache <- ensure_capf t.ccache th.tslot;
      t.wlast <- ensure_capf t.wlast th.tslot;
      t.wlast.(th.tslot) <- 0.;
      t.st_tab.(th.tslot) <- Some s;
      let cslot = F.currency_slot cur in
      t.by_cslot <- ensure_cap t.by_cslot cslot;
      t.by_cslot.(cslot) <- Some s;
      s

let thread_currency t th = (state t th).cur

(* Draw weight: the thread currency's active backing value, times the
   kernel-maintained compensation factor (when enabled). Valuations are
   cached incrementally inside Funding, so this is O(1) on a quiescent
   graph. *)
let[@inline] factor t (s : tstate) =
  if t.use_compensation then s.th.compensate else 1.
let value_of t s = F.currency_value t.system s.cur *. factor t s
let thread_value t th = value_of t (state t th)

(* The thread currency's value, read out of the funding system's flat
   cache: no float crosses a call, so none is boxed, inlined or not. *)
let[@inline] cur_value t s =
  (F.value_table t.system s.cur).(F.currency_slot s.cur)

(* The one weight-write of the draw path: records the two inputs of the
   written weight so [account] can later detect "nothing changed" without
   recomputing the product. *)
let write_weight t s h =
  let slot = s.th.tslot in
  let cv = cur_value t s in
  let f = factor t s in
  t.wlast.(slot) <- cv *. f;
  D.set_weight_at t.draw h t.wlast slot;
  t.wcache.(slot) <- cv;
  t.ccache.(slot) <- f

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
  (match s.dh with
  | Some h -> D.remove t.sdraws.(s.shard) h
  | None -> ());
  s.in_draw <- false

(* (Re-)insert a thread into its shard's draw. The weight inputs are
   compared against the cached copies exactly as [account] does on the
   unsharded path: on a quiescent graph nothing changed and the re-insert
   reuses the product of the last write ([wlast]), so a compute-bound
   thread's dispatch/re-enqueue cycle allocates nothing. *)
let sh_enqueue t s =
  if not s.in_draw then begin
    let slot = s.th.tslot in
    let cv = cur_value t s in
    let f = factor t s in
    if cv <> t.wcache.(slot) || f <> t.ccache.(slot) then begin
      let nw = cv *. f in
      t.wcache.(slot) <- cv;
      t.ccache.(slot) <- f;
      if s.counted then stree_adjust t s.shard (nw -. t.wlast.(slot));
      t.wlast.(slot) <- nw;
      t.scoped_updates <- t.scoped_updates + 1
    end;
    (match s.dh with
    | Some h -> D.readd_at t.sdraws.(s.shard) h t.wlast slot
    | None ->
        s.dh <-
          Some (D.add t.sdraws.(s.shard) ~client:s ~weight:t.wlast.(slot)));
    s.in_draw <- true;
    if not s.counted then begin
      stree_adjust t s.shard t.wlast.(slot);
      s.counted <- true
    end;
    if not s.in_fq then begin
      Queue.push s t.srings.(s.shard);
      s.ring_of <- s.shard;
      s.in_fq <- true
    end
  end

(* Revalue a sharded thread's draw weight in place (the scoped-refresh
   write). Dequeued threads are skipped: their caches disagree with the
   funding graph until [sh_enqueue] reconciles them on re-insert. *)
let write_weight_sh t s =
  match s.dh with
  | Some h when s.in_draw ->
      let slot = s.th.tslot in
      let cv = cur_value t s in
      let f = factor t s in
      let nw = cv *. f in
      t.wcache.(slot) <- cv;
      t.ccache.(slot) <- f;
      if s.counted then stree_adjust t s.shard (nw -. t.wlast.(slot));
      t.wlast.(slot) <- nw;
      D.set_weight_at t.sdraws.(s.shard) h t.wlast slot
  | _ -> ()

(* Move a thread between shards: O(1) detach from the source structure,
   O(log n) re-insert into the destination, both on the existing handle
   record — zero allocation. Fallback-ring entries are left where they are
   (the one-ring invariant): the stale entry hands the thread to its new
   ring lazily when popped. *)
let migrate t s ~dst =
  if dst < 0 || dst >= t.shards then invalid_arg "Lottery_sched: bad shard";
  if s.shard <> dst then begin
    let slot = s.th.tslot in
    if s.in_draw then begin
      match s.dh with
      | Some h ->
          D.remove t.sdraws.(s.shard) h;
          D.readd_at t.sdraws.(dst) h t.wlast slot
      | None -> assert false
    end;
    if s.counted then begin
      stree_adjust t s.shard (-.t.wlast.(slot));
      stree_adjust t dst t.wlast.(slot)
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

(* Hysteresis rebalance, run at every scheduling decision: trigger when
   the richest or poorest shard strays more than [imbalance_band] x the
   fair share from it, then migrate ticket-weighted picks rich -> poor
   until back within half the band (or the move budget runs out). The
   no-overshoot rule — the rich shard must stay at least as rich as the
   poor one becomes — stops a single heavy thread from ping-ponging
   between shards. On a balanced system this is two O(shards) scans and
   no draw. *)
let max_rebalance_moves = 8

let rebalance t =
  let cell = t.fscratch in
  Sh.total_at t.stree cell 0;
  let tot = cell.(0) in
  if tot > 0. then begin
    let ideal = tot /. float_of_int t.shards in
    let full_band = t.imbalance_band *. ideal in
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
          let s = D.client_at t.sdraws.(rich) w in
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
   decision keeps the RNG consumption bounded and deterministic. *)
let steal t ~dst =
  if not t.migration_enabled then None
  else if Sh.total t.stree <= 0. then None
  else begin
    let src = Sh.pick t.stree ~u:(Rng.float_unit t.rng) in
    if src < 0 || src = dst then None
    else begin
      let w = D.draw_slot t.sdraws.(src) t.rng in
      if w < 0 then None
      else begin
        let s = D.client_at t.sdraws.(src) w in
        migrate t s ~dst;
        t.steals <- t.steals + 1;
        Some s
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
   handle from the thread's first insertion is re-inserted on every later
   wake, and the weight travels through [wlast], so a wake allocates
   nothing. *)
let add_to_draw t s =
  if not s.in_draw then begin
    let slot = s.th.tslot in
    let cv = cur_value t s in
    let f = factor t s in
    t.wlast.(slot) <- cv *. f;
    (match s.dh with
    | Some h -> D.readd_at t.draw h t.wlast slot
    | None -> s.dh <- Some (D.add t.draw ~client:s ~weight:t.wlast.(slot)));
    s.in_draw <- true;
    t.wcache.(slot) <- cv;
    t.ccache.(slot) <- f;
    t.scoped_updates <- t.scoped_updates + 1;
    if not s.in_fq then begin
      Queue.push s t.fallback_q;
      s.in_fq <- true
    end
  end

let remove_from_draw t s =
  if s.in_draw then begin
    (match s.dh with Some h -> D.remove t.draw h | None -> ());
    s.in_draw <- false
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
    if s.in_draw then dispatch_dequeue t s
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
        if s.in_draw then dispatch_dequeue t s
      end
      else remove_from_draw t s;
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
      if th.tslot >= 0 && th.tslot < Array.length t.st_tab then
        t.st_tab.(th.tslot) <- None;
      if cslot >= 0 && cslot < Array.length t.by_cslot then
        t.by_cslot.(cslot) <- None

let refresh_weights t =
  t.full_refreshes <- t.full_refreshes + 1;
  if t.shards > 0 then
    Array.iter
      (function Some s -> write_weight_sh t s | None -> ())
      t.st_tab
  else
    Array.iter
      (function
        | Some ({ dh = Some h; in_draw = true; _ } as s) -> write_weight t s h
        | _ -> ())
      t.st_tab

(* Bring the draw in sync with the funding graph: a full rebuild only when
   explicitly requested ({!mark_dirty}), otherwise revalue exactly the
   threads whose currencies the change events dirtied — O(changed), the
   steady-state path — in the order they were first dirtied. Detached
   and blocked threads may still sit in the buffer; they are out of the
   draw ([in_draw] unset), so they drain as no-ops. Each drained cell goes
   back to [None], so the buffer never keeps a dead thread reachable. *)
let flush_pending t =
  let rewrite = not t.dirty in
  if t.dirty then begin
    refresh_weights t;
    t.dirty <- false
  end;
  for i = 0 to t.n_pending - 1 do
    match t.pending.(i) with
    | Some s ->
        t.pending.(i) <- None;
        s.in_pending <- false;
        if rewrite then
          if t.shards > 0 then begin
            if s.in_draw then begin
              write_weight_sh t s;
              t.scoped_updates <- t.scoped_updates + 1
            end
          end
          else begin
            match s.dh with
            | Some h when s.in_draw ->
                write_weight t s h;
                t.scoped_updates <- t.scoped_updates + 1
            | _ -> ()
          end
    | None -> ()
  done;
  t.n_pending <- 0

(* Unfunded threads never win a lottery (paper: zero tickets = starvation).
   To keep simulations with forgotten funding alive, optionally fall back to
   round-robin among runnable threads when every runnable thread has zero
   weight. The ring holds every runnable thread once; stale entries (threads
   that blocked or exited since being queued) are dropped lazily, so a pick
   is O(1) amortized. *)
let fallback_pick t =
  if not t.quantum_fallback then None
  else begin
    let rec next () =
      match Queue.take_opt t.fallback_q with
      | None -> None
      | Some s ->
          if not s.in_draw then begin
            s.in_fq <- false;
            next ()
          end
          else begin
            Queue.push s t.fallback_q;
            s.some
          end
    in
    next ()
  end

(* Sharded fallback: the per-shard round-robin ring, with the one-ring
   invariant's lazy hand-off — an entry whose thread migrated away is
   pushed to its new shard's ring on pop rather than eagerly on migrate. *)
let sh_ring_pick t c =
  if not t.quantum_fallback then None
  else begin
    let rec next () =
      match Queue.take_opt t.srings.(c) with
      | None -> None
      | Some s ->
          if not s.in_draw then begin
            (* blocked, dispatched or dead: drop; re-enqueue re-rings it *)
            s.in_fq <- false;
            next ()
          end
          else if s.shard <> c then begin
            Queue.push s t.srings.(s.shard);
            s.ring_of <- s.shard;
            next ()
          end
          else begin
            Queue.push s t.srings.(c);
            Some s
          end
    in
    next ()
  end

let select t =
  t.draws <- t.draws + 1;
  (match t.profiler with
  | None -> flush_pending t
  | Some p ->
      let t0 = Lotto_obs.Profile.start p in
      flush_pending t;
      Lotto_obs.Profile.stop p Lotto_obs.Profile.Valuation t0);
  (* Slot-based draw: the winner comes back as an int token and resolves to
     the tstate's preallocated [Some th] — no option or handle wrapper is
     built per decision. *)
  match t.profiler with
  | None ->
      let w = D.draw_slot t.draw t.rng in
      if w >= 0 then (D.client_at t.draw w).some else fallback_pick t
  | Some p ->
      let t0 = Lotto_obs.Profile.start p in
      let w = D.draw_slot t.draw t.rng in
      Lotto_obs.Profile.stop p Lotto_obs.Profile.Draw t0;
      if w >= 0 then (D.client_at t.draw w).some else fallback_pick t

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
    let s = D.client_at d w in
    dispatch_dequeue t s;
    s.some
  end
  else begin
    match steal t ~dst:cpu with
    | Some s ->
        dispatch_dequeue t s;
        s.some
    | None -> (
        match sh_ring_pick t cpu with
        | Some s ->
            dispatch_dequeue t s;
            s.some
        | None -> None)
  end

let account t th ~used:_ ~quantum:_ ~blocked:_ =
  if t.shards > 0 then begin
    (* The dispatched thread was dequeued at selection; put it back (with
       a freshness-checked weight) if its slice left it runnable. Blocked
       and exited threads were already handled by unready/detach. *)
    match find_state t th with
    | Some s when th.state = Runnable -> sh_enqueue t s
    | _ -> ()
  end
  else
  (* The thread's compensation factor was reset when its quantum started
     and possibly re-set when it blocked; refresh its draw weight so the
     next draw sees the current value. The fresh value is compared against
     the cached copy of the last write first: for a compute-bound thread on
     a quiescent funding graph nothing changed, and skipping [set_weight]
     keeps the comparison float unboxed (the cross-module call would box
     it). Skipping is exact, not approximate — a weight delta of zero
     leaves every backend bit-identical. *)
  if not t.dirty then begin
    match find_state t th with
    | Some ({ dh = Some h; in_draw = true; _ } as s) ->
        (* Each input is read in place (the funding system's flat value
           cache, the thread's compensate field), so the quiescent path
           computes no fresh float at all. Skipping the write when both
           inputs match is exact: the product could not have changed. *)
        if
          cur_value t s <> t.wcache.(th.tslot)
          || factor t s <> t.ccache.(th.tslot)
        then write_weight t s h
    | _ -> ()
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
  (match F.check_invariants t.system with
  | () -> ()
  | exception Failure msg -> vf "funding graph: %s" msg);
  List.rev !out

let thread_entitlement t th =
  let v = F.Valuation.make t.system in
  potential_value t v (state t th)

let draws t = t.draws
let full_refreshes t = t.full_refreshes
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
            if s.in_draw && not s.counted then
              vf "%s: in a shard draw but not counted in the shard tree"
                s.th.name;
            if s.counted && (s.shard < 0 || s.shard >= t.shards) then
              vf "%s: counted but shard id %d out of range" s.th.name s.shard;
            if s.counted && s.shard >= 0 && s.shard < t.shards then
              sums.(s.shard) <- sums.(s.shard) +. t.wlast.(s.th.tslot);
            (match s.dh with
            | Some h ->
                for i = 0 to t.shards - 1 do
                  let here = D.mem t.sdraws.(i) h in
                  if s.in_draw && i = s.shard && not here then
                    vf "%s: claims shard %d but its handle is not there"
                      s.th.name s.shard;
                  if here && (not s.in_draw || i <> s.shard) then
                    vf "%s: handle live in shard %d (claims %s)" s.th.name i
                      (if s.in_draw then string_of_int s.shard else "none")
                done
            | None ->
                if s.in_draw then
                  vf "%s: in_draw set but no draw handle" s.th.name))
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
