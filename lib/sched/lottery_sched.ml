open Lotto_sim.Types
module F = Lotto_tickets.Funding
module D = Lotto_draw.Draw
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
  mutable shard : int; (* owning shard; -1 until first placement *)
  mutable counted : bool;
      (* dispatched, and its [wlast] in its shard's [running]: a winner
         out of its draw for its slice still counts as the shard's load,
         so it attracts rebalancing pressure there but can never itself
         be drawn, stolen or migrated. Never true in a draw (there the
         draw's total holds the weight) nor on one shard, which keeps no
         mass *)
}

(* [flags] bits, by thread slot. *)
let in_draw_bit = 1 (* live in its shard's draw *)

(* Per-thread state lives in arrays indexed by the dense arena handle the
   kernel hands out ([thread.tslot]) instead of an id-keyed hashtable: a
   lookup is one bounds check and a load. Slots are recycled after death,
   so a read through [st_tab] by thread guards with a physical-equality
   check on the stored thread, and detach resets the flat entries. A thread
   currency is watched with the thread's slot as its tag, so the funding
   system names the slot itself and no currency is looked up.

   What a decision reads per thread is flat, in arrays indexed by thread
   slot, so the quiescent [account] never touches a record: [flags] and
   [wins] (the cached weight inputs). At 10^5 threads every record on that
   path is a likely cache miss. *)
type t = {
  mode : mode;
  rng : Rng.t;
  system : F.system;
  mutable st_tab : tstate option array; (* by thread slot *)
  mutable flags : int array; (* by thread slot: [in_draw_bit] *)
  mutable cslots : int array;
      (* by thread slot: the thread currency's funding slot, so a
         re-weigh reads the currency's value without its record *)
  mutable wins : float array;
      (* by thread slot [i], two cells: [2i] the currency value and
         [2i + 1] the compensation factor behind the last weight written
         to the draw, which a flush re-weighs with. The inputs are cached
         separately so [account] can compare each against a value read in
         place (the funding system's flat cache, the thread's compensate
         field) — comparing the recomputed product would box the fresh
         float on every decision; adjacent, they usually share a cache
         line *)
  mutable wlast : float array; (* by thread slot: the last weight written
                                   to the thread's draw. Kept flat so
                                   every write stays unboxed; the draw
                                   reads it through its [_at] entry
                                   points *)
  pending : F.queue;
      (* slots of the threads whose currencies went stale, awaiting a
         scoped re-weigh: every thread currency is watched by it *)
  (* The paper's distributed lottery (§4.2): one draw per shard, shard [i]
     serving virtual CPU [i]. A shard's ticket mass is its draw's total
     plus [running]; with one shard it is the plain lottery and keeps no
     mass. *)
  shards : int; (* at least 1 *)
  draw : thread option D.t array; (* by shard *)
  running : float array;
      (* by shard: the summed [wlast] of the [counted] threads dispatched
         from it *)
  mass : float array; (* by shard: scratch that [load_masses] fills *)
  scratch : thread D.t; (* reusable waiter-pick draw, cleared between picks *)
  (* Round-robin fallback rings, one per shard: intrusive doubly-linked
     lists over thread slots, so detach unlinks a dead thread in O(1) and
     no ring keeps it reachable. *)
  mutable ring_of : int array;
      (* by thread slot: the ring holding the thread, -1 for none. A
         migrated thread is handed to its new ring lazily, on pop, so
         migration itself never touches the rings (the one-ring
         invariant) *)
  mutable rprev : int array; (* by thread slot; -1 = none *)
  mutable rnext : int array;
  rhead : int array; (* by ring; -1 = empty *)
  rtail : int array;
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

let create ?(mode = List_mode) ?(use_compensation = true) ?(shards = 1) ~rng () =
  if shards < 0 then invalid_arg "Lottery_sched.create: shards < 0";
  let n = max 1 shards in
  let system = F.create_system () in
  {
    mode;
    rng;
    system;
    st_tab = [||];
    flags = [||];
    cslots = [||];
    wins = [||];
    wlast = [||];
    pending = F.queue system;
    shards = n;
    draw = Array.init n (fun _ -> D.of_mode (draw_mode mode));
    running = Array.make n 0.;
    mass = Array.make n 0.;
    scratch = D.of_mode (draw_mode mode);
    ring_of = [||];
    rprev = [||];
    rnext = [||];
    rhead = Array.make n (-1);
    rtail = Array.make n (-1);
    migration_enabled = true;
    placement_hook = None;
    migrations = 0;
    steals = 0;
    use_compensation;
    draws = 0;
    scoped_updates = 0;
    profiler = None;
  }

let funding t = t.system
let base_currency t = F.base t.system
let make_currency t name = F.make_currency t.system ~name

(* A thread currency's name, "thread:<id>:<name>", blitted into one
   buffer: every spawn builds one, and each [^] of a chain allocates an
   intermediate string. *)
let thread_currency_name (th : thread) =
  let id = string_of_int th.id in
  let n = String.length id and m = String.length th.name in
  let b = Bytes.create (8 + n + m) in
  Bytes.blit_string "thread:" 0 b 0 7;
  Bytes.blit_string id 0 b 7 n;
  Bytes.set b (7 + n) ':';
  Bytes.blit_string th.name 0 b (8 + n) m;
  Bytes.unsafe_to_string b

let state t th =
  match find_state t th with
  | Some s -> s
  | None ->
      if th.tslot < 0 then
        invalid_arg "Lottery_sched.state: thread already reaped";
      let cur =
        F.make_currency t.system ~name:(thread_currency_name th)
      in
      let competing = F.issue t.system ~currency:cur ~amount:competing_amount in
      let s =
        {
          th;
          cur;
          competing;
          dh = D.handle t.draw.(0) (Some th);
          donations = [];
          shard = -1;
          counted = false;
        }
      in
      let i = th.tslot in
      t.st_tab <- ensure_cap t.st_tab i;
      t.flags <- ensure_capv t.flags i 0;
      t.cslots <- ensure_capv t.cslots i (-1);
      t.wins <- ensure_capv t.wins ((2 * i) + 1) 0.;
      t.wlast <- ensure_capv t.wlast i 0.;
      t.ring_of <- ensure_capv t.ring_of i (-1);
      t.rprev <- ensure_capv t.rprev i (-1);
      t.rnext <- ensure_capv t.rnext i (-1);
      t.flags.(i) <- 0;
      t.cslots.(i) <- F.currency_slot cur;
      t.wlast.(i) <- 0.;
      t.ring_of.(i) <- -1;
      t.st_tab.(i) <- Some s;
      (* Every funding mutation — ours or a caller's through the Funding
         API — that stales the currency queues the slot, and exactly the
         queued threads are revalued before the next lottery. *)
      F.watch cur t.pending ~tag:i;
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

(* The value of the currency of the thread at slot [i], read out of the
   funding system's flat cache after revalidating it: no float crosses a
   call, so none is boxed, inlined or not. *)
let[@inline] cur_value t i =
  let j = t.cslots.(i) in
  (F.value_table t.system j).(j)

(* Whether a weight input moved since the last write. Comparing the
   inputs against their cached copies, not the recomputed product, keeps
   the comparison float unboxed. *)
let[@inline] stale t s =
  let i = s.th.tslot in
  cur_value t i <> t.wins.(2 * i) || factor t s.th <> t.wins.((2 * i) + 1)

(* --- per-shard ticket mass ---------------------------------------------- *)

(* A shard's ticket mass is the live ticket mass *assigned* to it: the
   runnable threads in its draw, which the draw's own total already sums,
   plus the threads dispatched from it (out of the draw for their slice
   but still consuming the shard's share), which [running] sums. Blocked
   threads carry no mass. So a re-weigh writes the draw alone, and only a
   dispatch, its return and a migration of a running thread write
   [running]. One shard has no placement, rebalance or steal to feed and
   never dispatches out of its draw, so it keeps no mass. *)
let[@inline] run_add t i w =
  let v = t.running.(i) +. w in
  t.running.(i) <- (if v > 0. then v else 0.)

let[@inline] count_out t s =
  if s.counted then begin
    run_add t s.shard (-.t.wlast.(s.th.tslot));
    s.counted <- false
  end

(* Every shard's mass into [t.mass]. O(shards), and there is one shard
   per CPU; the totals cross from the draws through the array, so
   nothing is boxed. *)
let load_masses t =
  let m = t.mass in
  for i = 0 to t.shards - 1 do
    D.total_at t.draw.(i) m i;
    m.(i) <- m.(i) +. t.running.(i)
  done

(* The sum of the masses [load_masses] left. Inlined, so the sum stays
   unboxed where it is used. *)
let[@inline] total_mass t =
  let tot = ref 0. in
  for i = 0 to t.shards - 1 do
    tot := !tot +. t.mass.(i)
  done;
  !tot

(* Least- and most-loaded shard in [t.mass], lowest id on ties. *)
let min_shard t =
  let m = t.mass in
  let best = ref 0 in
  for i = 1 to t.shards - 1 do
    if m.(i) < m.(!best) then best := i
  done;
  !best

let max_shard t =
  let m = t.mass in
  let best = ref 0 in
  for i = 1 to t.shards - 1 do
    if m.(i) > m.(!best) then best := i
  done;
  !best

(* Recompute the weight of the thread at slot [i] from fresh inputs
   (validating its currency's caches), recording the inputs beside it.
   The slot comes from the caller, so the currency's value is fetched
   without waiting for the thread's record. *)
let[@inline] reweigh t i s =
  let cv = cur_value t i in
  let f = factor t s.th in
  t.wins.(2 * i) <- cv;
  t.wins.((2 * i) + 1) <- f;
  t.wlast.(i) <- cv *. f

(* The in-place weight write for a thread in its draw. *)
let write_weight t i s =
  reweigh t i s;
  D.set_weight_at t.draw.(s.shard) s.dh t.wlast i

(* Insert a thread that is out of its draw, at weight [wlast]. *)
let insert t s =
  let i = s.th.tslot in
  D.readd_at t.draw.(s.shard) s.dh t.wlast i;
  set_in_draw t s true;
  if t.ring_of.(i) < 0 then ring_push t s.shard i

let[@inline] dequeue t s =
  D.remove t.draw.(s.shard) s.dh;
  set_in_draw t s false

(* A sharded decision's winner leaves its draw for its slice, its weight
   moving to [running]. *)
let dispatch t s =
  dequeue t s;
  run_add t s.shard t.wlast.(s.th.tslot);
  s.counted <- true

(* Block or exit: out of the draw, and its mass off the shard. *)
let leave t s =
  count_out t s;
  if in_draw t s then dequeue t s

(* Move a thread between shards: O(1) detach from the source structure,
   O(log n) re-insert into the destination, both on the existing handle
   record — zero allocation. Fallback-ring entries are left where they are
   (the one-ring invariant): the stale entry hands the thread to its new
   ring lazily when popped. [dst] is a valid shard (callers check). *)
let migrate t s ~dst =
  if s.shard <> dst then begin
    let i = s.th.tslot in
    if in_draw t s then begin
      D.remove t.draw.(s.shard) s.dh;
      D.readd_at t.draw.(dst) s.dh t.wlast i
    end;
    if s.counted then begin
      run_add t s.shard (-.t.wlast.(i));
      run_add t dst t.wlast.(i)
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
      | None ->
          load_masses t;
          min_shard t
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
   between shards. The masses are reloaded after every move. On a
   balanced system this is four O(shards) scans and no draw. *)
let max_rebalance_moves = 8
let imbalance_band = 0.25 (* rebalance trigger, as a fraction of total/N *)

let rebalance t =
  load_masses t;
  let tot = total_mass t in
  if tot > 0. then begin
    let ideal = tot /. float_of_int t.shards in
    let full_band = imbalance_band *. ideal in
    let thresh = ref full_band in
    let moves = ref 0 in
    let go = ref true in
    while !go && !moves < max_rebalance_moves do
      if !moves > 0 then load_masses t;
      go := false;
      let rich = max_shard t in
      let poor = min_shard t in
      let mr = t.mass.(rich) in
      let mp = t.mass.(poor) in
      if rich <> poor && (mr -. ideal > !thresh || ideal -. mp > !thresh) then begin
        let w = D.draw_slot t.draw.(rich) t.rng in
        if w >= 0 then begin
          let s = drawn_state t (D.client_at t.draw.(rich) w) in
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

(* Ticket-weighted shard pick over the masses [load_masses] left, [tot]
   their [total_mass], for a uniform deviate formed from [Rng.bits53] as
   [Rng.float_unit] forms it: the shard covering [u * tot] in id order.
   A zero-mass shard never wins; float drift past the last partial sum
   lands on the last shard that holds mass. *)
let[@inline] pick_shard t tot =
  let m = t.mass in
  let u = float_of_int (Rng.bits53 t.rng) /. float_of_int (1 lsl 53) in
  let rest = ref (u *. tot) in
  let won = ref (-1) and last = ref (-1) and i = ref 0 in
  while !won < 0 && !i < t.shards do
    let mi = m.(!i) in
    if mi > 0. then
      if !rest < mi then won := !i
      else begin
        rest := !rest -. mi;
        last := !i
      end;
    incr i
  done;
  if !won >= 0 then !won else !last

(* Work stealing, tried when a CPU's own shard has no funded runnable
   thread: pick a source shard ticket-weighted by mass, draw a victim
   from it, and migrate it here. One steal per empty decision keeps the
   RNG consumption bounded and deterministic. Returns the stolen thread's
   slot, or -1, so a steal boxes nothing. *)
let steal t ~dst =
  if not t.migration_enabled then -1
  else begin
    load_masses t;
    let tot = total_mass t in
    if tot <= 0. then -1
    else begin
      let src = pick_shard t tot in
      if src = dst then -1
      else begin
        let w = D.draw_slot t.draw.(src) t.rng in
        if w < 0 then -1
        else begin
          let s = drawn_state t (D.client_at t.draw.(src) w) in
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
let enqueue t s =
  if not (in_draw t s) then begin
    place t s;
    reweigh t s.th.tslot s;
    t.scoped_updates <- t.scoped_updates + 1;
    insert t s
  end

let ready t th =
  let s = state t th in
  if not (F.is_active t.system s.competing) then F.resume t.system s.competing;
  enqueue t s

let attach t th =
  let s = state t th in
  (* competing ticket becomes held (and active) the first time *)
  F.hold t.system s.competing;
  enqueue t s

let unready t th =
  let s = state t th in
  F.suspend t.system s.competing;
  leave t s

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

(* The kernel revokes on every wake and kill, so both revokes look the
   source up with [find_state]: a thread with no state has nothing to
   withdraw, and [state] would create one for a reaped thread. *)
let revoke t ~src =
  match find_state t src with Some s -> drop_donations t s | None -> ()

let revoke_from t ~src ~dst =
  match find_state t src with
  | None -> ()
  | Some s -> (
      match List.assoc_opt dst.id s.donations with
      | None -> ()
      | Some ticket ->
          F.destroy_ticket t.system ticket;
          s.donations <- List.remove_assoc dst.id s.donations)

let detach t th =
  match find_state t th with
  | None -> ()
  | Some s ->
      leave t s;
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
          let j = F.tag (F.denomination b) t.pending in
          match slot_get t.st_tab j with
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
      F.destroy_ticket t.system s.competing;
      List.iter
        (fun i -> F.destroy_ticket t.system i)
        (F.issued_tickets t.system s.cur);
      F.remove_currency t.system s.cur;
      (* The teardown above may have queued the slot; a thread spawned
         into it before the next drain must not be re-weighed at this
         entry's position, so the entry goes. *)
      F.cancel t.pending th.tslot;
      t.flags.(th.tslot) <- 0;
      t.cslots.(th.tslot) <- -1;
      t.st_tab.(th.tslot) <- None

(* Bring the draws in sync with the funding graph: revalue exactly the
   threads whose currencies went stale — O(changed) — in the queue's drain
   order, which fixes the order of the draws' weight writes. The drained
   slot's [flags] entry decides: blocked threads may still sit in the
   queue, and so may dispatched ones, whose caches the re-insert in
   [account] reconciles; both are out of their draws and drain as no-ops
   that read no thread state. Detached threads' entries were cancelled.
   The queue holds slots, so it never keeps a dead thread reachable.

   A drained thread in its draw keeps the compensation factor its last
   weight write recorded in [wins]: the kernel moves a factor only for the
   thread it runs, which is out of its draw on several shards, and on one
   shard is accounted before the next select. So the re-weigh reads the
   flat tables and no thread record ([check_flat_tables] audits the
   factor cell). *)
let flush_pending t =
  let q = t.pending in
  for k = 0 to F.settle q - 1 do
    let i = F.nth q k in
    if i >= 0 && t.flags.(i) land in_draw_bit <> 0 then begin
      let s = st_at t i in
      let cv = cur_value t i in
      t.wins.(2 * i) <- cv;
      t.wlast.(i) <- cv *. t.wins.((2 * i) + 1);
      D.set_weight_at t.draw.(s.shard) s.dh t.wlast i;
      t.scoped_updates <- t.scoped_updates + 1
    end
  done;
  F.clear q

(* Unfunded threads never win a lottery (paper: zero tickets = starvation).
   To keep simulations with forgotten funding alive, a shard falls back to
   round-robin among its runnable threads when every one of them has zero
   weight. The ring holds every runnable thread once; stale entries
   (threads that blocked or were dispatched since being queued) are
   dropped lazily, so a pick is O(1) amortized, and an entry whose thread
   migrated away is pushed to its new shard's ring on pop rather than
   eagerly on migrate. Returns the picked slot, or -1. *)
let rec ring_pick t c =
  let i = t.rhead.(c) in
  if i < 0 then -1
  else begin
    ring_unlink t i;
    let s = st_at t i in
    if not (in_draw t s) then ring_pick t c
    else if s.shard <> c then begin
      ring_push t s.shard i;
      ring_pick t c
    end
    else begin
      ring_push t c i;
      i
    end
  end

(* One scheduling decision for virtual CPU [cpu] = shard [cpu]. The local
   draw is consulted first; with several shards an empty (or unfunded)
   shard tries a ticket-weighted steal, then its fallback ring. The slot-
   based draw resolves the winning slot, in one load from the draw's flat
   client array, to the thread's preallocated [Some th].

   With several shards another CPU of the same kernel round could draw a
   running thread, so the winner leaves its draw for its slice (its mass
   moves to [running]) and [account] re-inserts it. One shard has no
   other CPU: the winner stays in its draw, and no option, handle or
   scheduler record is read or built per decision. *)
let select t ~cpu =
  t.draws <- t.draws + 1;
  (match t.profiler with
  | None -> flush_pending t
  | Some p ->
      let t0 = Lotto_obs.Profile.start p in
      flush_pending t;
      Lotto_obs.Profile.stop p Lotto_obs.Profile.Valuation t0);
  let sharded = t.shards > 1 in
  if sharded && t.migration_enabled then rebalance t;
  let d = t.draw.(cpu) in
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
    if sharded then dispatch t (drawn_state t some);
    some
  end
  else begin
    let i = if sharded then steal t ~dst:cpu else -1 in
    let i = if i >= 0 then i else ring_pick t cpu in
    if i < 0 then None
    else begin
      let s = st_at t i in
      if sharded then dispatch t s;
      D.client s.dh
    end
  end

(* The thread's compensation factor was reset when its quantum started and
   possibly re-set when it blocked; refresh its draw weight so the next
   draw sees the current value. For a compute-bound thread on a quiescent
   funding graph nothing changed, and the write is skipped — exactly, not
   approximately: a weight delta of zero leaves every backend
   bit-identical. A thread still runnable but out of its draw is a sharded
   decision's winner back from its slice: its mass leaves [running] and
   it is re-inserted, counting the re-weigh if an input moved. Blocked and
   exited threads were already handled by unready/detach. *)
let account_slow t th =
  match find_state t th with
  | Some s when in_draw t s -> if stale t s then write_weight t th.tslot s
  | Some s when th.state = Runnable ->
      count_out t s;
      if stale t s then begin
        reweigh t th.tslot s;
        t.scoped_updates <- t.scoped_updates + 1
      end;
      insert t s
  | _ -> ()

(* The quiescent check reads flat arrays only. A thread in its draw and not
   queued has a valid currency cache whose value its last weight write
   recorded — every write validates the cache, and every valid -> stale
   flip queues the thread's slot — so only the compensation factor can
   have moved ([check_flat_tables] audits the currency cell). Anything
   else takes the slow path. *)
let account t th ~used:_ ~quantum:_ ~blocked:_ =
  let i = th.tslot in
  if
    not
      (i >= 0
      && i < Array.length t.flags
      && t.flags.(i) = in_draw_bit
      && (not (F.is_queued t.pending i))
      && factor t th = t.wins.((2 * i) + 1))
  then account_slow t th

(* Lottery among blocked waiters (paper §6.1), weighted by each waiter's
   own funding. A waiter's thread currency is inactive while it blocks (its
   competing ticket is suspended, and condition/semaphore waiters donate to
   nobody), so we weigh its *potential* value: the sum of its backing
   tickets at current exchange rates — exactly what the waiter would be
   worth the moment it wakes. *)
let potential_value t (s : tstate) =
  List.fold_left
    (fun acc b ->
      acc +. (float_of_int (F.amount t.system b) *. F.unit_value t.system (F.denomination b)))
    0.
    (F.backing_tickets t.system s.cur)

(* The pick goes through the same draw backend as the CPU lottery: the
   scheduler's scratch structure over the waiters, weighted by potential
   value and cleared again by the next pick. The list backend prepends, so
   waiters are inserted back-to-front to keep the scan in arrival order
   (matching the historical walk) without allocating a reversed list. *)
let pick_waiter t waiters =
  let d = t.scratch in
  D.clear d;
  let insert w = ignore (D.add d ~client:w ~weight:(potential_value t (state t w))) in
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
    max_cpus = t.shards;
    attach = attach t;
    detach = detach t;
    ready = ready t;
    unready = unready t;
    select = (fun ~cpu -> select t ~cpu);
    account = (fun th ~used ~quantum ~blocked -> account t th ~used ~quantum ~blocked);
    donate = (fun ~src ~dst -> donate t ~src ~dst);
    revoke = (fun ~src -> revoke t ~src);
    revoke_from = (fun ~src ~dst -> revoke_from t ~src ~dst);
    pick_waiter = (fun ws -> pick_waiter t ws);
  }

let set_profiler t p = t.profiler <- p

(* --- auditable introspection -------------------------------------------- *)

(* The flat per-thread tables against the records they describe. Every
   entry's currency slot is its thread currency's (-1 for none), since a
   re-weigh reads the value there. Every entry in its draw, queued or not,
   holds its thread's compensation factor bit for bit in its factor cell,
   which the flush re-weighs with (the compensation contract; between
   slices, where every caller audits, it holds). An entry that is in its
   draw and not pending is one the quiescent [account] trusts without
   validating, so it must belong to a live thread whose handle is live in
   its draw, its currency cache must be valid, and its cached inputs must
   be the currency's value and reproduce the draw's current weight bit
   for bit. A ring entry must belong to a live thread. *)
let check_flat_tables t out =
  let vf fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let bits = Int64.bits_of_float in
  let vals = F.values t.system in
  for i = 0 to Array.length t.flags - 1 do
    let fl = t.flags.(i) in
    let cslot = match t.st_tab.(i) with Some s -> F.currency_slot s.cur | None -> -1 in
    if t.cslots.(i) <> cslot then
      vf "slot %d: flat currency slot %d but its thread currency is at %d" i
        t.cslots.(i) cslot;
    (match t.st_tab.(i) with
    | Some s when fl land in_draw_bit <> 0 ->
        let f = t.wins.((2 * i) + 1) and live = factor t s.th in
        if bits f <> bits live then
          vf "%s: in its draw with cached factor %h but its compensation is %h"
            s.th.name f live
    | _ -> ());
    match t.st_tab.(i) with
    | None ->
        if fl <> 0 then vf "slot %d: flags %d set but no thread state" i fl;
        if F.is_queued t.pending i then vf "slot %d: queued but no thread state" i;
        if t.ring_of.(i) >= 0 then
          vf "slot %d: fallback ring %d holds a dead slot" i t.ring_of.(i)
    | Some s when fl = in_draw_bit && not (F.is_queued t.pending i) ->
        let name = s.th.name in
        let d = t.draw.(max 0 s.shard) in
        if s.th.tslot <> i || s.th.state = Zombie then
          vf "%s: trusted flat entry at slot %d is not a live thread" name i
        else if not (D.mem d s.dh) then
          vf "%s: trusted flat entry but its handle is not in its draw" name
        else if not (F.cache_valid t.system s.cur) then
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
  let live = Hashtbl.create 64 in
  List.iter (fun (th : thread) -> Hashtbl.replace live th.id ()) threads;
  (* A transfer lives while its source waits in an RPC, lock or join (§4.6:
     destroyed when the client wakes), and its target's [detach] destroys it. *)
  List.iter
    (fun th ->
      match find_state t th with
      | Some { donations = _ :: _ as ds; _ } ->
          (match (th.state, th.pending) with
          | Blocked, (Waiting_reply | Waiting_replies _ | Waiting_lock | Waiting_join) -> ()
          | Blocked, _ -> vf "%s: holds transfers outside an RPC, lock or join wait" th.name
          | _ -> vf "%s: holds transfers while not Blocked" th.name);
          List.iter
            (fun (dst, _) ->
              if not (Hashtbl.mem live dst) then
                vf "%s: transfers to thread %d, which is not live" th.name dst)
            ds
      | _ -> ())
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

let thread_entitlement t th = potential_value t (state t th)

let draw_weight t th =
  match find_state t th with
  | Some s when in_draw t s -> Some (D.weight t.draw.(s.shard) s.dh)
  | _ -> None

let draws t = t.draws
let full_refreshes _ = 0
let scoped_weight_updates t = t.scoped_updates

let list_comparisons t =
  match t.mode with
  | Tree_mode -> None
  | List_mode ->
      Some
        (Array.fold_left
           (fun n d -> n + Option.value ~default:0 (D.comparisons d))
           0 t.draw)

let runnable_count t = Array.fold_left (fun n d -> n + D.size d) 0 t.draw

(* --- sharding introspection and control ---------------------------------- *)

let shards t = t.shards
let migrations t = t.migrations
let steals t = t.steals
let set_migration_enabled t b = t.migration_enabled <- b
let set_placement_hook t h = t.placement_hook <- h

let shard_of t th =
  match find_state t th with Some s -> s.shard | None -> -1

(* The accessors of shard mass and migration: one shard keeps no mass
   and has nowhere to migrate to, so no index is good there. *)
let check_shard_arg t who i =
  if t.shards = 1 || i < 0 || i >= t.shards then
    invalid_arg ("Lottery_sched." ^ who ^ ": bad shard")

let shard_ticket_mass t i =
  check_shard_arg t "shard_ticket_mass" i;
  D.total t.draw.(i) +. t.running.(i)

let force_migrate t th ~dst =
  check_shard_arg t "force_migrate" dst;
  match find_state t th with
  | Some s when s.shard >= 0 -> migrate t s ~dst
  | _ -> ()

(* Cross-checks the shard bookkeeping: every live tstate sits in exactly
   the shard draw it claims ([D.mem] there and nowhere else); both halves
   of every shard's mass match what they sum — [running] the [wlast] of
   the threads counted into it, the draw's total the weights in the draw
   (relative epsilon: both are maintained by incremental float deltas);
   and flag coherence (a counted thread is out of its draw, placed, and
   on a scheduler that keeps mass). Read-only; safe between any two
   slices. *)
let check_sharding t =
  let out = ref [] in
  let vf fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let running = Array.make t.shards 0. and drawn = Array.make t.shards 0. in
  Array.iter
    (function
      | None -> ()
      | Some s ->
          let live = in_draw t s in
          if live && s.counted then
            vf "%s: in a shard draw but also counted as dispatched" s.th.name;
          if s.counted && t.shards = 1 then
            vf "%s: counted as dispatched on one shard" s.th.name;
          let placed = s.shard >= 0 && s.shard < t.shards in
          if s.counted && not placed then
            vf "%s: counted but shard id %d out of range" s.th.name s.shard;
          if s.counted && placed then
            running.(s.shard) <- running.(s.shard) +. t.wlast.(s.th.tslot);
          if live && placed then
            drawn.(s.shard) <- drawn.(s.shard) +. D.weight t.draw.(s.shard) s.dh;
          Array.iteri
            (fun i d ->
              let here = D.mem d s.dh in
              if live && i = s.shard && not here then
                vf "%s: claims shard %d but its handle is not there" s.th.name
                  s.shard;
              if here && ((not live) || i <> s.shard) then
                vf "%s: handle live in shard %d (claims %s)" s.th.name i
                  (if live then string_of_int s.shard else "none"))
            t.draw)
    t.st_tab;
  let near a b =
    abs_float (a -. b) <= 1e-6 *. max 1. (max (abs_float a) (abs_float b))
  in
  for i = 0 to t.shards - 1 do
    if not (near t.running.(i) running.(i)) then
      vf "shard %d: running mass %.9g but its dispatched threads weigh %.9g" i
        t.running.(i) running.(i);
    let total = D.total t.draw.(i) in
    if not (near total drawn.(i)) then
      vf "shard %d: draw total %.9g but its threads in the draw weigh %.9g" i total
        drawn.(i)
  done;
  List.rev !out
