open Types
module Obs = Lotto_obs
module Slots = Lotto_arena.Slots
module Vec = Lotto_arena.Vec

type 'a on_effect = (('a, step) Effect.Deep.continuation -> step) option

(* One live thread's event actor and its last [Wake], [Select], [Block],
   [Preempt] and [Compensate] events. Events are immutable, so re-emitting
   an equal one is invisible to every subscriber; the record belongs to one
   occupant of a slot, so no cached event can name a thread that has since
   been reaped. *)
type obs_cache = {
  who : Obs.Event.actor;
  mutable wake : Obs.Event.t;
  mutable select : Obs.Event.t;
  mutable block : Obs.Event.t;
  mutable preempt : Obs.Event.t;
  mutable compensate : Obs.Event.t;
}

(* What a thread's constant [pending] state waits on or has received (see
   {!Types.pending}); unit continuations are in the thread's [c_kc]. One
   record per thread slot, allocated when an occupant of the slot first
   blocks, kept for the slot's later occupants and reset when each is
   reaped, so a block and its wake allocate nothing and no record keeps a
   reaped thread reachable. A field is meaningful only while [pending]
   names it. *)
type wait = {
  mutable w_until : int; (* Sleeping: the deadline of its timer entry *)
  mutable w_port : port; (* Waiting_recv *)
  mutable w_mutex : mutex; (* Waiting_lock, Waiting_cond *)
  mutable w_cond : condition; (* Waiting_cond *)
  mutable w_sem : semaphore; (* Waiting_sem *)
  mutable w_target : thread; (* Waiting_join *)
  mutable w_msg : message; (* Ready_msg *)
  mutable w_reply : string; (* Ready_reply *)
  mutable w_rid : int;
      (* Waiting_reply, Ready_reply: the msg_id of the request awaited;
         Waiting_replies, Ready_replies: that of the gather's shard 0. A
         client that caught [Killed] and sent again waits for a new id, so
         a late answer to the old request does not match. *)
  mutable w_kmsg : (message, step) Effect.Deep.continuation;
      (* Waiting_recv, Ready_msg *)
  mutable w_kstr : (string, step) Effect.Deep.continuation;
      (* Waiting_reply, Ready_reply *)
}

type t = {
  mutable now : int;
      (* the global virtual clock: the round floor between slices, the
         executing CPU's clock during one. [cpu_now] carries each virtual
         CPU's own clock; [now] = [cpu_now.(c)] while CPU [c] runs. *)
  quantum : int;
  cpu_now : int array; (* per-CPU virtual clock; its length is the CPU count *)
  sel : thread option array;
      (* per-round select results: every CPU at the round floor selects
         before any slice runs, so one round's slices are virtually
         concurrent and no thread can be picked by two CPUs (a scheduler
         serving several CPUs dequeues on dispatch). Reuses the
         scheduler's returned option — the round adds no allocation. *)
  sched : sched;
  timers : thread Heap.t;
  mutable next_id : int;
  (* Thread arena: live threads occupy dense slots (thread.slot), recycled
     through a generation-counted free list when a thread is reaped, with
     an intrusive order index preserving creation-order iteration. Dead
     threads leave the table entirely — their records stay valid for
     anyone still holding them, but kernel iteration is O(live). *)
  th_slots : Slots.t;
  mutable th_tab : thread array; (* [||] until the first spawn *)
  mutable waits : wait array;
      (* wait records by thread slot, [no_wait] until the slot's first
         block; [||] until any thread blocks *)
  mutable failed : (thread * exn) list;
      (* reverse order of death; [Killed] deaths are only counted *)
  mutable kills : int;
  mutable idle : int;
  mutable slices : int;
  bus : Obs.Bus.t;
  mutable current : thread option; (* thread being advanced, if any *)
  mutable actors : obs_cache array;
      (* event actors and events by thread slot, filled lazily while
         observed *)
  (* registries of every synchronization object created through this
     kernel, in creation order: the invariant auditor cross-checks
     wait-queue membership against thread [pending] states, and fault
     injectors perturb wakeup order through them *)
  ports_v : port Vec.t;
  mutexes_v : mutex Vec.t;
  conds_v : condition Vec.t;
  sems_v : semaphore Vec.t;
  mutable pre_select : (unit -> unit) option;
      (* fired at every scheduling-decision boundary, just before select *)
  mutable profiler : Obs.Profile.t option;
      (* when set, dispatch (slice execution) and publish (bus fan-out)
         host-clock costs are recorded; schedulers time their own phases *)
  (* Effect dispatch. Every fiber runs under the kernel's one [handler],
     whose [effc] stores the request's payload in these registers and
     returns one of the handlers below, all built once per kernel, so a
     [perform] allocates nothing beyond the effect value and its
     continuation. The kernel sets the performer [r_th] before it resumes
     a fiber: [advance] for the thread it drives, [kill]'s delivery and
     [shed_rpc]'s drop-oldest victim for a foreign one, after which these
     two restore the performer they interrupted. The register rule: a
     handler reads every register it uses into locals before it calls
     anything that can resume a fiber (the resumed fiber's next request
     overwrites them), and clears the registers that can reach a thread,
     so no reaped thread stays reachable from here. The performer
     register is the exception: it is cleared when its thread is reaped
     ([finish]) rather than after every request, which would cost a
     second write barrier per request. *)
  handler : (unit, step) Effect.Deep.handler;
  mutable r_th : thread; (* the performing thread *)
  mutable r_n : int; (* Compute, Sleep *)
  mutable r_port : port; (* Rpc, Receive, Poll_receive *)
  mutable r_str : string; (* Rpc payload, Reply result, Spawn name *)
  mutable r_targets : (port * string) list; (* Rpc_many *)
  mutable r_msg : message; (* Reply *)
  mutable r_mutex : mutex; (* Lock, Unlock, Wait *)
  mutable r_cond : condition; (* Wait, Signal, Broadcast *)
  mutable r_sem : semaphore; (* Sem_wait, Sem_post *)
  mutable r_target : thread; (* Join *)
  mutable r_body : unit -> unit; (* Spawn *)
  h_compute : unit on_effect;
  h_sleep : unit on_effect;
  h_rpc : string on_effect;
  h_rpc_many : string list on_effect;
  h_recv : message on_effect;
  h_poll : message option on_effect;
  h_reply : unit on_effect;
  h_lock : unit on_effect;
  h_unlock : unit on_effect;
  h_wait : unit on_effect;
  h_signal : unit on_effect;
  h_broadcast : unit on_effect;
  h_sem_wait : unit on_effect;
  h_sem_post : unit on_effect;
  h_join : unit on_effect;
  h_yield : unit on_effect;
  h_now : time on_effect;
  h_self : thread on_effect;
  h_spawn : thread on_effect;
}

(* Event publication: every site guards with [observed] so that with no
   subscribers the cost is a single array-length check and no event is
   allocated (the tracing-off hot path must stay free). *)
let[@inline] observed k = Obs.Bus.active k.bus
(* Each live thread's event actor is built once, on its first event while
   the bus has a subscriber, and cached by arena slot; the cached record is
   reused only while its id matches the slot's current occupant. A reaped
   thread (slot -1) gets a fresh record. With no subscriber nothing calls
   this, so an unobserved kernel never allocates the table. *)
let no_actor = Obs.Event.actor_of ~tid:(-1) ~tname:""
let no_event = Obs.Event.Wake { who = no_actor }
let no_cache =
  {
    who = no_actor;
    wake = no_event;
    select = no_event;
    block = no_event;
    preempt = no_event;
    compensate = no_event;
  }

let fresh_cache th =
  {
    who = Obs.Event.actor_of ~tid:th.id ~tname:th.name;
    wake = no_event;
    select = no_event;
    block = no_event;
    preempt = no_event;
    compensate = no_event;
  }

(* a reaped thread's record is not stored, so its events are built fresh *)
let cache k th =
  let s = th.tslot in
  if s < 0 then fresh_cache th
  else begin
    if s >= Array.length k.actors then begin
      let n = max 16 (max (s + 1) (2 * Array.length k.actors)) in
      let a = Array.make n no_cache in
      Array.blit k.actors 0 a 0 (Array.length k.actors);
      k.actors <- a
    end;
    let c = k.actors.(s) in
    if c.who.Obs.Event.tid = th.id then c
    else begin
      let c = fresh_cache th in
      k.actors.(s) <- c;
      c
    end
  end

let actor k th =
  if th.tslot < 0 then Obs.Event.actor_of ~tid:th.id ~tname:th.name
  else (cache k th).who

(* Each cached event is rebuilt only when a field other than [who] changed
   since the thread's last one of its kind. *)
let wake_event k th =
  let c = cache k th in
  if c.wake == no_event then c.wake <- Obs.Event.Wake { who = c.who };
  c.wake

let select_event k th ~cpu =
  let c = cache k th in
  (match c.select with
  | Obs.Event.Select { cpu = cpu'; _ } when cpu' = cpu -> ()
  | _ -> c.select <- Obs.Event.Select { who = c.who; cpu });
  c.select

let block_event k th ~on =
  let c = cache k th in
  (match c.block with
  | Obs.Event.Block { on = on'; _ } when String.equal on' on -> ()
  | _ -> c.block <- Obs.Event.Block { who = c.who; on });
  c.block

let preempt_event k th ~used ~quantum ~why =
  let c = cache k th in
  (match c.preempt with
  | Obs.Event.Preempt { used = u; quantum = q; why = w; _ }
    when u = used && q = quantum && w == why -> ()
  | _ -> c.preempt <- Obs.Event.Preempt { who = c.who; used; quantum; why });
  c.preempt

(* the factor is compared bit for bit, so a reused event carries exactly
   the float the scheduler was given *)
let compensate_event k th ~factor =
  let c = cache k th in
  (match c.compensate with
  | Obs.Event.Compensate { factor = f; _ }
    when Int64.bits_of_float f = Int64.bits_of_float factor -> ()
  | _ -> c.compensate <- Obs.Event.Compensate { who = c.who; factor });
  c.compensate

let emit k ev =
  match k.profiler with
  | None -> Obs.Bus.emit k.bus ~time:k.now ev
  | Some p ->
      let t0 = Obs.Profile.start p in
      Obs.Bus.emit k.bus ~time:k.now ev;
      Obs.Profile.stop p Obs.Profile.Publish t0

let now k = k.now
let[@inline] cpus k = Array.length k.cpu_now
let quantum k = k.quantum

let cpu_clock k cpu =
  if cpu < 0 || cpu >= cpus k then invalid_arg "Kernel.cpu_clock: bad cpu";
  k.cpu_now.(cpu)

let fresh_id k =
  let id = k.next_id in
  k.next_id <- id + 1;
  id

(* Register placeholders (see [t]): what the registers hold between
   requests; [no_thread] also fills the vacant cells of [th_tab], so a
   reaped thread is never kept alive by a cell that table growth copied
   it into. Never mutated, so one set serves every kernel and domain. *)
let no_thread =
  {
    id = -1;
    tslot = -1;
    name = "";
    state = Zombie;
    pending = Exited;
    c_left = 0;
    c_kc = vacant_kc;
    cpu = 0;
    compensate = 1.;
    owned = [];
    joiners = Waitq.create ();
    servicing = [];
  }

let no_msg = { msg_id = -1; sender = no_thread; payload = ""; sent_at = 0; slot = 0 }
let no_body () = ()

let no_port =
  {
    port_id = -1;
    port_name = "";
    queue = Queue.create ();
    waiters = Queue.create ();
    capacity = max_int;
    shed = Reject_new;
    shed_count = 0;
    rej = Exit;
  }

let no_mutex =
  { mutex_id = -1; mutex_name = ""; policy = Fifo; owner = None;
    lock_waiters = Waitq.create (); acquisitions = 0 }

let no_cond =
  { cond_id = -1; cond_name = ""; cond_policy = Fifo; cond_waiters = Waitq.create ();
    signals = 0 }

let no_sem =
  { sem_id = -1; sem_name = ""; sem_policy = Fifo; count = 0; sem_waiters = Waitq.create () }

let vacant_kmsg : (message, step) Effect.Deep.continuation = vacant ()
let vacant_kstr : (string, step) Effect.Deep.continuation = vacant ()

let fresh_wait () =
  {
    w_until = 0;
    w_port = no_port;
    w_mutex = no_mutex;
    w_cond = no_cond;
    w_sem = no_sem;
    w_target = no_thread;
    w_msg = no_msg;
    w_reply = "";
    w_rid = -1;
    w_kmsg = vacant_kmsg;
    w_kstr = vacant_kstr;
  }

(* the vacant cell of [waits]; never written, so shared by every kernel *)
let no_wait = fresh_wait ()

(* The wait record of [th]'s slot, allocated on the slot's first block.
   Called by the handlers that install a state with a record field. *)
let wait_rec k th =
  let s = th.tslot in
  if s >= Array.length k.waits then
    k.waits <- Slots.grow_payload k.th_slots k.waits ~dummy:no_wait;
  let w = k.waits.(s) in
  if w != no_wait then w
  else begin
    let w = fresh_wait () in
    k.waits.(s) <- w;
    w
  end

(* The record of a thread whose [pending] names a record field: the
   handler that installed that state allocated it. *)
let[@inline] wait_of k th = k.waits.(th.tslot)

(* [msg] is (a shard of) the request [client] waits for or was just
   answered on, [client] being in a reply state: a client that abandoned
   an earlier request (it caught [Killed]) and sent a new one must not
   take the old request's answer or eviction. A gather's shards take
   consecutive ids from its shard 0's. *)
let awaits k client msg = (wait_of k client).w_rid = msg.msg_id - msg.slot

let reset_wait w =
  if w != no_wait then begin
    w.w_until <- 0;
    w.w_port <- no_port;
    w.w_mutex <- no_mutex;
    w.w_cond <- no_cond;
    w.w_sem <- no_sem;
    w.w_target <- no_thread;
    w.w_msg <- no_msg;
    w.w_reply <- "";
    w.w_rid <- -1;
    w.w_kmsg <- vacant_kmsg;
    w.w_kstr <- vacant_kstr
  end

let spawn k ~name body =
  let th =
    {
      id = fresh_id k;
      tslot = -1;
      name;
      state = Runnable;
      pending = Not_started body;
      c_left = 0;
      c_kc = vacant_kc;
      cpu = 0;
      compensate = 1.;
      owned = [];
      joiners = Waitq.create ();
      servicing = [];
    }
  in
  let s = Slots.alloc k.th_slots in
  th.tslot <- s;
  k.th_tab <- Slots.grow_payload k.th_slots k.th_tab ~dummy:no_thread;
  k.th_tab.(s) <- th;
  k.sched.attach th;
  if observed k then emit k (Obs.Event.Spawn { who = actor k th });
  th

let create_port ?(capacity = max_int) ?(shed = Reject_new) k ~name =
  if capacity < 1 then invalid_arg "Kernel.create_port: capacity must be >= 1";
  let p =
    {
      port_id = fresh_id k;
      port_name = name;
      queue = Queue.create ();
      waiters = Queue.create ();
      capacity;
      shed;
      shed_count = 0;
      rej = Rejected name;
    }
  in
  Vec.push k.ports_v p;
  p

let create_mutex k ?(policy = Fifo) name =
  let m =
    { mutex_id = fresh_id k; mutex_name = name; policy; owner = None; lock_waiters = Waitq.create (); acquisitions = 0 }
  in
  Vec.push k.mutexes_v m;
  m

let create_condition k ?(policy = Fifo) name =
  let c =
    { cond_id = fresh_id k; cond_name = name; cond_policy = policy; cond_waiters = Waitq.create (); signals = 0 }
  in
  Vec.push k.conds_v c;
  c

let create_semaphore k ?(policy = Fifo) ~initial name =
  if initial < 0 then invalid_arg "Kernel.create_semaphore: negative initial count";
  let sm =
    { sem_id = fresh_id k; sem_name = name; sem_policy = policy; count = initial; sem_waiters = Waitq.create () }
  in
  Vec.push k.sems_v sm;
  sm

let ports k = Vec.to_list k.ports_v
let mutexes k = Vec.to_list k.mutexes_v
let conditions k = Vec.to_list k.conds_v
let semaphores k = Vec.to_list k.sems_v

(* --- state transitions ------------------------------------------------ *)

let block k th ~on =
  th.state <- Blocked;
  k.sched.unready th;
  if observed k then emit k (block_event k th ~on)

let unblock k th =
  th.state <- Runnable;
  k.sched.ready th;
  if observed k then emit k (wake_event k th)

(* --- bounded-port admission ------------------------------------------- *)

(* A waiter entry is live only while its thread still sits in
   [Waiting_recv]; entries for threads that caught [Killed] and moved on
   are skipped here exactly as [deliver_or_queue] skips them. *)
let port_has_live_waiter p =
  Queue.fold
    (fun acc w ->
      acc || (match w.pending with Waiting_recv -> true | _ -> false))
    false p.waiters

(* The admission predicate for a plain [Api.rpc]: a message is shed only
   when it would have to queue (no live server waiting) and the queue is
   already at capacity. One int compare on the unbounded default. *)
let port_would_shed p =
  Queue.length p.queue >= p.capacity && not (port_has_live_waiter p)

(* Pop the oldest evictable queued message under [Drop_oldest]. Scatter
   shards ([Api.rpc_many] senders, blocked in [Waiting_replies]) are never
   evicted — partially-shedding a gather has no sensible client-side
   story — so eviction candidates are single-shot requests, live
   ([Waiting_reply]) or stale (sender dead or moved on, to a gather
   too), and shards of gathers nobody waits for any more. The head of
   the queue is almost always evictable; the rebuild below only runs
   when a live scatter shard is oldest. *)
let take_oldest_victim k p =
  let evictable m =
    match m.sender.pending with
    | Waiting_replies _ -> not (awaits k m.sender m)
    | _ -> true
  in
  match Queue.peek_opt p.queue with
  | None -> None
  | Some m when evictable m ->
      ignore (Queue.pop p.queue);
      Some m
  | Some _ ->
      let keep = Queue.create () in
      let victim = ref None in
      Queue.iter
        (fun m ->
          if Option.is_none !victim && evictable m then victim := Some m
          else Queue.push m keep)
        p.queue;
      Queue.clear p.queue;
      Queue.transfer keep p.queue;
      !victim

let port_shed_count p = p.shed_count

(* A transfer is recorded only by the scheduler: the kernel forwards, and
   a revoke with nothing to withdraw is the scheduler's no-op. *)
let donate k ~src ~dst =
  k.sched.donate ~src ~dst;
  if observed k then emit k (Obs.Event.Donate { src = actor k src; dst = actor k dst })

let revoke k src = k.sched.revoke ~src
let revoke_from k ~src ~dst = k.sched.revoke_from ~src ~dst

let grant_mutex k m th ~contended =
  m.owner <- Some th;
  th.owned <- m :: th.owned;
  m.acquisitions <- m.acquisitions + 1;
  if observed k then
    emit k
      (Obs.Event.Lock_acquire { who = actor k th; mutex = m.mutex_name; contended })

(* Dequeue the waiter a release or post wakes: the head under [Fifo]
   (O(1) amortized, no copy); under [Lottery_wake] the scheduler's pick
   among all waiters in arrival order, falling back to the head. Callers
   check that [q] is non-empty. *)
let take_waiter k policy q =
  match policy with
  | Fifo -> Waitq.pop q
  | Lottery_wake -> (
      match k.sched.pick_waiter (Waitq.to_list q) with
      | Some w ->
          Waitq.remove q w;
          w
      | None -> Waitq.pop q)

(* Hand a released mutex to its next waiter (by wake policy), moving the
   remaining waiters' funding to the new owner. [who] is the releasing
   thread: the unlocker on the normal path, the dead owner on the robust
   path ({!finish}). *)
let release_mutex k who m =
  (match m.owner with
  | Some o -> o.owned <- List.filter (fun m' -> m' != m) o.owned
  | None -> ());
  m.owner <- None;
  if observed k then
    emit k (Obs.Event.Lock_release { who = actor k who; mutex = m.mutex_name });
  if not (Waitq.is_empty m.lock_waiters) then begin
    let next = take_waiter k m.policy m.lock_waiters in
    grant_mutex k m next ~contended:true;
    (match next.pending with
    | Waiting_lock -> next.pending <- Ready_unit
    | _ -> assert false);
    revoke k next;
    unblock k next;
    (* Remaining waiters now fund the new owner (the paper's mutex
       currency moves its inheritance ticket to the winner). *)
    Waitq.iter
      (fun w ->
        revoke k w;
        donate k ~src:w ~dst:next)
      m.lock_waiters
  end

let finish k th exn_opt =
  th.pending <- Exited;
  th.c_kc <- vacant_kc;
  th.state <- Zombie;
  (* a killed thread is only counted, so neither its record nor a list
     cell outlives its reaping *)
  (match exn_opt with
  | Some Killed -> k.kills <- k.kills + 1
  | Some e -> k.failed <- (th, e) :: k.failed
  | None -> ());
  revoke k th;
  (* Robust-mutex handoff: a thread that dies holding a mutex — killed in
     the grant window before its [lock] ever returned, or exiting without
     running cleanup — must not orphan it. Release and hand off exactly as
     an unlock would, so the waiters neither deadlock on a zombie owner
     nor keep funding it. [owned] tracks exactly the held locks, so this is
     O(held), not a sweep over every mutex ever created. *)
  let held = th.owned in
  List.iter
    (fun m ->
      match m.owner with Some o when o == th -> release_mutex k th m | _ -> ())
    held;
  (* wake joiners, in arrival order, before detaching: their transfer
     tickets still reference the dying thread's funding state *)
  while not (Waitq.is_empty th.joiners) do
    let j = Waitq.pop th.joiners in
    match j.pending with
    | Waiting_join ->
        (wait_of k j).w_target <- no_thread;
        j.pending <- Ready_unit;
        revoke k j;
        unblock k j
    | _ -> ()
  done;
  k.sched.detach th;
  (* reap: recycle the arena slot; the record stays valid for holders,
     but the kernel no longer reaches it *)
  if th.tslot >= 0 then begin
    Slots.release k.th_slots th.tslot;
    k.th_tab.(th.tslot) <- no_thread;
    if th.tslot < Array.length k.waits then reset_wait k.waits.(th.tslot);
    th.tslot <- -1
  end;
  if k.r_th == th then k.r_th <- no_thread;
  if observed k then
    emit k
      (Obs.Event.Exit
         { who = actor k th; failure = Option.map Printexc.to_string exn_opt })

(* --- IPC and mutex operations (run inside effect handlers) ------------ *)

(* The server begins servicing [msg]: push it on the span-parent stack and
   announce the pickup. Called at all three pickup sites — direct handoff,
   queue drain on receive, and poll. *)
let begin_service k srv msg ~port:p =
  srv.servicing <- msg.msg_id :: srv.servicing;
  if observed k then
    emit k
      (Obs.Event.Rpc_recv
         { who = actor k srv; port = p.port_name; msg_id = msg.msg_id;
           sender = actor k msg.sender })

let end_service srv id =
  match srv.servicing with
  | x :: rest when x = id -> srv.servicing <- rest
  | l -> srv.servicing <- List.filter (fun x -> x <> id) l

(* The reply helpers are top-level functions, not closures over the
   request, so a reply allocates nothing for its bookkeeping. *)
let server_actor k client =
  match k.current with Some s -> actor k s | None -> actor k client

let emit_reply k msg =
  if observed k then
    emit k
      (Obs.Event.Rpc_reply
         { who = server_actor k msg.sender; client = actor k msg.sender;
           msg_id = msg.msg_id })

(* Replying to a client that exited, was killed, or caught [Killed] and
   abandoned the request must not fault the server: the reply is dropped
   as a traced no-op. Only replies the client could never have stopped
   waiting for on its own — a second answer to an already-answered
   request — remain programming errors that raise in the server. *)
let drop_reply k msg reason =
  if observed k then
    emit k
      (Obs.Event.Rpc_reply_dropped
         { who = server_actor k msg.sender; client = actor k msg.sender;
           msg_id = msg.msg_id; reason })

let do_reply k msg result =
  let client = msg.sender in
  match client.pending with
  | Waiting_reply when awaits k client msg ->
      emit_reply k msg;
      (wait_of k client).w_reply <- result;
      client.pending <- Ready_reply;
      revoke k client;
      unblock k client
  | Waiting_replies scatter when awaits k client msg ->
      if scatter.replies.(msg.slot) <> None then
        invalid_arg "Api.reply: duplicate reply to a scatter slot";
      emit_reply k msg;
      scatter.replies.(msg.slot) <- Some result;
      scatter.outstanding <- scatter.outstanding - 1;
      (* the replying server's share of the divided transfer is withdrawn;
         remaining servers keep (now larger) shares of the client's value *)
      (match k.current with
      | Some server -> revoke_from k ~src:client ~dst:server
      | None -> ());
      if scatter.outstanding = 0 then begin
        let results =
          Array.to_list (Array.map (fun r -> Option.get r) scatter.replies)
        in
        client.pending <- Ready_replies (results, scatter.ks);
        revoke k client;
        unblock k client
      end
  | (Ready_reply | Ready_replies _) when awaits k client msg ->
      (* the request was already answered and the client merely hasn't run
         yet: a second reply is a genuine duplicate *)
      invalid_arg "Api.reply: sender is not awaiting a reply"
  | Exited -> drop_reply k msg "client exited"
  | _ -> drop_reply k msg "client no longer waiting"

let do_reply k msg result =
  do_reply k msg result;
  (* replied (or dropped): the request leaves the server's span stack *)
  match k.current with
  | Some srv -> end_service srv msg.msg_id
  | None -> ()

let do_unlock k th m =
  (match m.owner with
  | Some o when o == th -> ()
  | Some _ | None -> invalid_arg "Api.unlock: thread does not own mutex");
  release_mutex k th m

(* A condition waiter woken by signal/broadcast must reacquire the mutex it
   released: grant immediately if free, otherwise join the mutex queue
   (funding the current owner like any other lock waiter). Its wait record
   already names the mutex, and its continuation stays in [c_kc]. *)
let wake_cond_waiter k th =
  match th.pending with
  | Waiting_cond -> (
      let m = (wait_of k th).w_mutex in
      match m.owner with
      | None ->
          grant_mutex k m th ~contended:false;
          th.pending <- Ready_unit;
          unblock k th
      | Some owner ->
          Waitq.push m.lock_waiters th;
          th.pending <- Waiting_lock;
          donate k ~src:th ~dst:owner)
  | _ -> assert false

let do_signal k c =
  c.signals <- c.signals + 1;
  if not (Waitq.is_empty c.cond_waiters) then
    wake_cond_waiter k (take_waiter k c.cond_policy c.cond_waiters)

let do_broadcast k c =
  c.signals <- c.signals + 1;
  (* wake in policy order so a lottery condition hands the mutex queue
     positions out by funding *)
  while not (Waitq.is_empty c.cond_waiters) do
    wake_cond_waiter k (take_waiter k c.cond_policy c.cond_waiters)
  done

let do_sem_post k sm =
  if Waitq.is_empty sm.sem_waiters then sm.count <- sm.count + 1
  else
    let w = take_waiter k sm.sem_policy sm.sem_waiters in
    match w.pending with
    | Waiting_sem ->
        w.pending <- Ready_unit;
        unblock k w
    | _ -> assert false

(* Hand [msg] to the first live server waiting on [p], or queue it.
   Waiter entries of threads killed while waiting are dropped on the way. *)
let rec handoff_or_queue k sender p msg =
  if Queue.is_empty p.waiters then Queue.push msg p.queue
  else
    let srv = Queue.take p.waiters in
    match srv.pending with
    | Waiting_recv ->
        (wait_of k srv).w_msg <- msg;
        srv.pending <- Ready_msg;
        begin_service k srv msg ~port:p;
        unblock k srv;
        donate k ~src:sender ~dst:srv
    | _ -> handoff_or_queue k sender p msg

(* --- effect handlers ------------------------------------------------- *)

(* Each handler runs with the performing fiber suspended, installs the
   thread's new [pending] state and returns what [advance] should do
   next; handlers that answer at once resume the fiber themselves and
   return the step it reaches. All follow the register rule on [t]. *)
open Effect.Deep

(* A step reached by a fiber other than the one [advance] is driving (a
   kill, a drop-oldest victim): its pending state is installed, so only a
   finished body needs reaping. *)
let settle_aside k th = function
  | S_done -> finish k th None
  | S_failed e -> finish k th (Some e)
  | S_continue | S_blocked | S_yielded -> ()

(* A request for [n <= 0] ticks is a finished compute: [advance] resumes
   it at once. *)
let on_compute k (kc : (unit, step) continuation) =
  let th = k.r_th in
  th.pending <- Compute;
  th.c_left <- k.r_n;
  th.c_kc <- kc;
  S_continue

let on_sleep k (kc : (unit, step) continuation) =
  let th = k.r_th and d = k.r_n in
  let until = k.now + max d 0 in
  (wait_rec k th).w_until <- until;
  th.c_kc <- kc;
  th.pending <- Sleeping;
  block k th ~on:"sleep";
  Heap.push k.timers ~key:until th;
  S_blocked

(* hand a freshly sent message to a live waiting server, or queue it *)
let deliver_or_queue k sender p msg =
  if observed k then
    emit k
      (Obs.Event.Rpc_send
         { who = actor k sender; port = p.port_name; msg_id = msg.msg_id;
           parent =
             (* the span the sender is itself servicing, if any: nested
                RPC chains form trees *)
             (match sender.servicing with [] -> None | s :: _ -> Some s) });
  handoff_or_queue k sender p msg

let reject_rpc k th p ~id ~reason (kc : (string, step) continuation) =
  p.shed_count <- p.shed_count + 1;
  if observed k then
    emit k
      (Obs.Event.Rpc_shed
         { who = actor k th; port = p.port_name; msg_id = id; reason;
           parent =
             (match th.servicing with [] -> None | s :: _ -> Some s) });
  (* the sender never blocked: [Rejected] surfaces directly in its body *)
  discontinue kc p.rej

(* Admission control refused [th]'s request on full port [p]: bounce the
   new request (reject-new, or drop-oldest finding nothing evictable), or
   evict the oldest queued single-shot request and admit the new one. *)
let shed_rpc k th p ~id ~payload kc =
  match p.shed with
  | Reject_new -> reject_rpc k th p ~id ~reason:"reject-new" kc
  | Drop_oldest -> (
      match take_oldest_victim k p with
      | None -> reject_rpc k th p ~id ~reason:"no-victim" kc
      | Some victim ->
          p.shed_count <- p.shed_count + 1;
          if observed k then
            emit k
              (Obs.Event.Rpc_shed
                 { who = actor k victim.sender; port = p.port_name;
                   msg_id = victim.msg_id; reason = "drop-oldest";
                   parent =
                     (match victim.sender.servicing with
                     | [] -> None
                     | s :: _ -> Some s) });
          (* admit the new request before unwinding the victim, so the
             queue never overshoots capacity if the victim's body catches
             [Rejected] and immediately retries *)
          let msg = { msg_id = id; sender = th; payload; sent_at = k.now; slot = 0 } in
          let w = wait_rec k th in
          w.w_kstr <- kc;
          w.w_rid <- id;
          th.pending <- Waiting_reply;
          block k th ~on:"rpc";
          deliver_or_queue k th p msg;
          (* deliver [Rejected] into the victim's sender, [kill]-style: the
             body may catch it and keep going, so fix up catch-and-continue
             threads that came back runnable without being re-readied *)
          (match victim.sender.pending with
          | Waiting_reply when awaits k victim.sender victim ->
              let v = victim.sender in
              let vkc = (wait_of k v).w_kstr in
              if v.state = Blocked then revoke k v;
              k.r_th <- v;
              settle_aside k v (discontinue vkc p.rej);
              k.r_th <- th;
              (match (v.state, v.pending) with
              | ( Blocked,
                  ( Not_started _ | Compute | Ready_unit | Ready_msg | Ready_reply
                  | Ready_replies _ ) ) ->
                  unblock k v
              | _ -> ())
          | _ ->
              (* stale: the sender died or moved on, perhaps to a newer
                 request; nothing waits for this one *)
              ());
          S_blocked)

let on_rpc k (kc : (string, step) continuation) =
  let th = k.r_th and p = k.r_port and payload = k.r_str in
  (* the id is consumed whether or not the request is admitted, so a
     bounded run's id stream matches the same run traced or untraced *)
  let id = fresh_id k in
  if port_would_shed p then shed_rpc k th p ~id ~payload kc
  else begin
    let msg = { msg_id = id; sender = th; payload; sent_at = k.now; slot = 0 } in
    let w = wait_rec k th in
    w.w_kstr <- kc;
    w.w_rid <- id;
    th.pending <- Waiting_reply;
    block k th ~on:"rpc";
    deliver_or_queue k th p msg;
    S_blocked
  end

let on_rpc_many k (kc : (string list, step) continuation) =
  let th = k.r_th and targets = k.r_targets in
  k.r_targets <- [];
  if targets = [] then discontinue kc (Invalid_argument "Api.rpc_many: no targets")
  else begin
    let n = List.length targets in
    (* the shards take consecutive ids, so a reply names its gather *)
    let first_id = k.next_id in
    k.next_id <- first_id + n;
    (wait_rec k th).w_rid <- first_id;
    th.pending <-
      Waiting_replies { replies = Array.make n None; outstanding = n; ks = kc };
    block k th ~on:"rpc";
    List.iteri
      (fun slot (p, payload) ->
        let msg =
          { msg_id = first_id + slot; sender = th; payload; sent_at = k.now; slot }
        in
        deliver_or_queue k th p msg)
      targets;
    S_blocked
  end

let on_recv k (kc : (message, step) continuation) =
  let th = k.r_th and p = k.r_port in
  let w = wait_rec k th in
  w.w_kmsg <- kc;
  if Queue.is_empty p.queue then begin
    w.w_port <- p;
    th.pending <- Waiting_recv;
    block k th ~on:"recv";
    Queue.push th p.waiters;
    S_blocked
  end
  else begin
    let msg = Queue.take p.queue in
    w.w_msg <- msg;
    th.pending <- Ready_msg;
    begin_service k th msg ~port:p;
    (* The queued sender's ticket transfer lands on whichever server
       thread picks the message up (paper §4.6). *)
    if msg.sender.state = Blocked then donate k ~src:msg.sender ~dst:th;
    S_continue
  end

let on_poll k (kc : (message option, step) continuation) =
  let th = k.r_th and p = k.r_port in
  match Queue.take_opt p.queue with
  | Some msg as r ->
      begin_service k th msg ~port:p;
      if msg.sender.state = Blocked then donate k ~src:msg.sender ~dst:th;
      continue kc r
  | None -> continue kc None

let on_reply k (kc : (unit, step) continuation) =
  let msg = k.r_msg and result = k.r_str in
  k.r_msg <- no_msg;
  match do_reply k msg result with
  | () -> continue kc ()
  | exception e -> discontinue kc e

let on_lock k (kc : (unit, step) continuation) =
  let th = k.r_th and m = k.r_mutex in
  match m.owner with
  | None ->
      grant_mutex k m th ~contended:false;
      th.c_kc <- kc;
      th.pending <- Ready_unit;
      S_continue
  | Some owner ->
      Waitq.push m.lock_waiters th;
      (wait_rec k th).w_mutex <- m;
      th.c_kc <- kc;
      th.pending <- Waiting_lock;
      block k th ~on:"lock";
      donate k ~src:th ~dst:owner;
      S_blocked

let on_unlock k (kc : (unit, step) continuation) =
  let th = k.r_th and m = k.r_mutex in
  match do_unlock k th m with
  | () -> continue kc ()
  | exception e -> discontinue kc e

(* atomically release the mutex and block on the condition *)
let on_wait k (kc : (unit, step) continuation) =
  let th = k.r_th and c = k.r_cond and m = k.r_mutex in
  match do_unlock k th m with
  | () ->
      let w = wait_rec k th in
      w.w_cond <- c;
      w.w_mutex <- m;
      th.c_kc <- kc;
      th.pending <- Waiting_cond;
      block k th ~on:"cond";
      Waitq.push c.cond_waiters th;
      S_blocked
  | exception e -> discontinue kc e

let on_signal k (kc : (unit, step) continuation) =
  do_signal k k.r_cond;
  continue kc ()

let on_broadcast k (kc : (unit, step) continuation) =
  do_broadcast k k.r_cond;
  continue kc ()

let on_sem_wait k (kc : (unit, step) continuation) =
  let th = k.r_th and sm = k.r_sem in
  if sm.count > 0 then begin
    sm.count <- sm.count - 1;
    th.c_kc <- kc;
    th.pending <- Ready_unit;
    S_continue
  end
  else begin
    Waitq.push sm.sem_waiters th;
    (wait_rec k th).w_sem <- sm;
    th.c_kc <- kc;
    th.pending <- Waiting_sem;
    block k th ~on:"sem";
    S_blocked
  end

let on_sem_post k (kc : (unit, step) continuation) =
  do_sem_post k k.r_sem;
  continue kc ()

let on_join k (kc : (unit, step) continuation) =
  let th = k.r_th and target = k.r_target in
  k.r_target <- no_thread;
  if target.state = Zombie then begin
    th.c_kc <- kc;
    th.pending <- Ready_unit;
    S_continue
  end
  else if target == th then discontinue kc (Invalid_argument "Api.join: cannot join self")
  else begin
    (wait_rec k th).w_target <- target;
    th.c_kc <- kc;
    th.pending <- Waiting_join;
    block k th ~on:"join";
    Waitq.push target.joiners th;
    (* one more transfer site: the joiner's rights speed the target up *)
    donate k ~src:th ~dst:target;
    S_blocked
  end

let on_yield k (kc : (unit, step) continuation) =
  let th = k.r_th in
  th.c_kc <- kc;
  th.pending <- Ready_unit;
  S_yielded

let on_self k (kc : (thread, step) continuation) =
  let th = k.r_th in
  continue kc th

let on_spawn k (kc : (thread, step) continuation) =
  let name = k.r_str and body = k.r_body in
  k.r_body <- no_body;
  continue kc (spawn k ~name body)

(* --- running thread bodies -------------------------------------------- *)

(* The [effc] of the kernel's handler: fill the request's registers and
   return its prebuilt handler. The performer is already in [r_th]. *)
let dispatch k (type a) (eff : a Effect.t) : a on_effect =
  match eff with
  | Effects.Compute n ->
      k.r_n <- n;
      k.h_compute
  | Effects.Sleep d ->
      k.r_n <- d;
      k.h_sleep
  | Effects.Rpc (p, payload) ->
      k.r_port <- p;
      k.r_str <- payload;
      k.h_rpc
  | Effects.Rpc_many targets ->
      k.r_targets <- targets;
      k.h_rpc_many
  | Effects.Receive p ->
      k.r_port <- p;
      k.h_recv
  | Effects.Poll_receive p ->
      k.r_port <- p;
      k.h_poll
  | Effects.Reply (msg, result) ->
      k.r_msg <- msg;
      k.r_str <- result;
      k.h_reply
  | Effects.Lock m ->
      k.r_mutex <- m;
      k.h_lock
  | Effects.Unlock m ->
      k.r_mutex <- m;
      k.h_unlock
  | Effects.Wait (c, m) ->
      k.r_cond <- c;
      k.r_mutex <- m;
      k.h_wait
  | Effects.Signal c ->
      k.r_cond <- c;
      k.h_signal
  | Effects.Broadcast c ->
      k.r_cond <- c;
      k.h_broadcast
  | Effects.Sem_wait sm ->
      k.r_sem <- sm;
      k.h_sem_wait
  | Effects.Sem_post sm ->
      k.r_sem <- sm;
      k.h_sem_post
  | Effects.Join target ->
      k.r_target <- target;
      k.h_join
  | Effects.Yield -> k.h_yield
  | Effects.Now -> k.h_now
  | Effects.Self -> k.h_self
  | Effects.Spawn (name, body') ->
      k.r_str <- name;
      k.r_body <- body';
      k.h_spawn
  | _ -> None

(* Drive a thread's continuation until it needs CPU time, blocks, yields or
   exits. All non-compute kernel operations are instantaneous in virtual
   time. *)
let rec advance k th : [ `Compute | `Blocked | `Exited | `Yielded ] =
  k.r_th <- th;
  match th.pending with
  | Not_started body -> settle k th (match_with body () k.handler)
  | Ready_unit -> settle k th (continue th.c_kc ())
  | Ready_msg ->
      (* the message leaves the record, which must not keep its sender *)
      let w = wait_of k th in
      let m = w.w_msg in
      w.w_msg <- no_msg;
      settle k th (continue w.w_kmsg m)
  | Ready_reply ->
      let w = wait_of k th in
      settle k th (continue w.w_kstr w.w_reply)
  | Ready_replies (rs, kc) -> settle k th (continue kc rs)
  | Compute when th.c_left <= 0 -> settle k th (continue th.c_kc ())
  | Compute -> `Compute
  | Sleeping | Waiting_recv | Waiting_reply | Waiting_replies _ | Waiting_lock
  | Waiting_cond | Waiting_sem | Waiting_join ->
      `Blocked
  | Exited -> `Exited

and settle k th = function
  | S_continue -> advance k th
  | S_blocked -> `Blocked
  | S_yielded -> `Yielded
  | S_done ->
      finish k th None;
      `Exited
  | S_failed e ->
      finish k th (Some e);
      `Exited

(* Forcibly terminate a thread: deliver {!Types.Killed} into its body so
   exception handlers (lock cleanup and the like) run, detach it from
   whatever it was waiting on, and reap it. Must not target the currently
   running thread. *)
let kill k th =
  (match k.current with
  | Some c when c == th -> invalid_arg "Kernel.kill: cannot kill the running thread"
  | _ -> ());
  match th.pending with
  | Exited -> ()
  | Not_started _ -> finish k th (Some Killed)
  | _ ->
      (* unhook from wait lists first so nothing wakes a zombie *)
      (match th.pending with
      | Waiting_lock -> Waitq.remove (wait_of k th).w_mutex.lock_waiters th
      | Waiting_cond -> Waitq.remove (wait_of k th).w_cond.cond_waiters th
      | Waiting_sem -> Waitq.remove (wait_of k th).w_sem.sem_waiters th
      | Waiting_join ->
          let w = wait_of k th in
          Waitq.remove w.w_target.joiners th;
          w.w_target <- no_thread
      | Waiting_recv ->
          (* Queue has no removal; rebuild without the victim so no zombie
             lingers on a port's waiter list. *)
          let port = (wait_of k th).w_port in
          let keep = Queue.create () in
          Queue.iter (fun w -> if w.id <> th.id then Queue.push w keep) port.waiters;
          Queue.clear port.waiters;
          Queue.transfer keep port.waiters
      | Ready_msg -> (wait_of k th).w_msg <- no_msg
      | _ -> () (* the timer heap skips dead entries lazily *));
      if th.state = Blocked then revoke k th;
      let performer = k.r_th (* the killer, when called from a body *) in
      let deliver (type a) (kc : (a, step) continuation) =
        (* the body may catch Killed and run cleanup; whatever it requests
           next is installed by that request's handler *)
        k.r_th <- th;
        settle_aside k th (discontinue kc Killed)
      in
      (match th.pending with
      | Compute | Sleeping | Waiting_lock | Waiting_cond | Waiting_sem
      | Waiting_join | Ready_unit ->
          deliver th.c_kc
      | Waiting_recv | Ready_msg -> deliver (wait_of k th).w_kmsg
      | Waiting_reply | Ready_reply -> deliver (wait_of k th).w_kstr
      | Waiting_replies { ks = kc; _ } -> deliver kc
      | Ready_replies (_, kc) -> deliver kc
      | Not_started _ | Exited -> ());
      k.r_th <- (if performer.tslot >= 0 then performer else no_thread);
      (* If the body caught Killed and kept going, respect that: a thread
         that blocked again (sleep, lock, ...) had a coherent waiting state
         installed by its handler, but one that came back runnable — e.g.
         [wait]'s reacquire path grabbing a free mutex — was never
         re-readied, since nothing was running it. Fix the state up here so
         catch-and-continue threads actually get scheduled again. *)
      (match (th.state, th.pending) with
      | ( Blocked,
          ( Not_started _ | Compute | Ready_unit | Ready_msg | Ready_reply
          | Ready_replies _ ) ) ->
          unblock k th
      | _ -> ())

let create ?(quantum = Time.ms 100) ?(cpus = 1) ~sched () =
  if quantum <= 0 then invalid_arg "Kernel.create: quantum <= 0";
  if cpus < 1 then invalid_arg "Kernel.create: cpus < 1";
  if cpus > sched.max_cpus then
    invalid_arg
      (Printf.sprintf "Kernel.create: scheduler %s does not support cpus > %d"
         sched.sched_name sched.max_cpus);
  let rec k =
    {
      now = 0;
      quantum;
      cpu_now = Array.make cpus 0;
      sel = Array.make cpus None;
      sched;
      timers = Heap.create ~dummy:no_thread;
      next_id = 0;
      th_slots = Slots.create ();
      th_tab = [||];
      waits = [||];
      failed = [];
      kills = 0;
      idle = 0;
      slices = 0;
      bus = Obs.Bus.create ();
      current = None;
      actors = [||];
      ports_v = Vec.create ();
      mutexes_v = Vec.create ();
      conds_v = Vec.create ();
      sems_v = Vec.create ();
      pre_select = None;
      profiler = None;
      handler =
        {
          retc = (fun () -> S_done);
          exnc = (fun e -> S_failed e);
          effc = (fun eff -> dispatch k eff);
        };
      r_th = no_thread;
      r_n = 0;
      r_port = no_port;
      r_str = "";
      r_targets = [];
      r_msg = no_msg;
      r_mutex = no_mutex;
      r_cond = no_cond;
      r_sem = no_sem;
      r_target = no_thread;
      r_body = no_body;
      h_compute = Some (fun kc -> on_compute k kc);
      h_sleep = Some (fun kc -> on_sleep k kc);
      h_rpc = Some (fun kc -> on_rpc k kc);
      h_rpc_many = Some (fun kc -> on_rpc_many k kc);
      h_recv = Some (fun kc -> on_recv k kc);
      h_poll = Some (fun kc -> on_poll k kc);
      h_reply = Some (fun kc -> on_reply k kc);
      h_lock = Some (fun kc -> on_lock k kc);
      h_unlock = Some (fun kc -> on_unlock k kc);
      h_wait = Some (fun kc -> on_wait k kc);
      h_signal = Some (fun kc -> on_signal k kc);
      h_broadcast = Some (fun kc -> on_broadcast k kc);
      h_sem_wait = Some (fun kc -> on_sem_wait k kc);
      h_sem_post = Some (fun kc -> on_sem_post k kc);
      h_join = Some (fun kc -> on_join k kc);
      h_yield = Some (fun kc -> on_yield k kc);
      h_now = Some (fun kc -> continue kc k.now);
      h_self = Some (fun kc -> on_self k kc);
      h_spawn = Some (fun kc -> on_spawn k kc);
    }
  in
  k

(* --- the scheduling loop ----------------------------------------------- *)

(* A timer-heap entry is live only while its thread is still sleeping
   toward that exact deadline. Killed sleepers — and sleepers that caught
   [Killed] and moved on — leave stale entries behind (the heap has no
   removal); both the waker and the idle-time branch must ignore them. *)
let timer_entry_live k ~key th =
  match th.pending with Sleeping -> (wait_of k th).w_until = key | _ -> false

(* Both walkers are flat while loops over the heap's accessors: a per-call
   [let rec] closure would charge every scheduling decision a handful of
   minor words even when the heap is empty. *)
let prune_stale_timers k =
  let scanning = ref true in
  while !scanning do
    if Heap.is_empty k.timers then scanning := false
    else begin
      let key = Heap.min_key k.timers in
      let th = Heap.min_elt k.timers in
      if timer_entry_live k ~key th then scanning := false
      else Heap.drop_min k.timers
    end
  done

let wake_timers k =
  let waking = ref true in
  while !waking do
    prune_stale_timers k;
    if Heap.is_empty k.timers || Heap.min_key k.timers > k.now then
      waking := false
    else begin
      let th = Heap.min_elt k.timers in
      Heap.drop_min k.timers;
      match th.pending with
      | Sleeping ->
          th.pending <- Ready_unit;
          unblock k th
      | _ -> ()
    end
  done

let run_slice k th ~cpu ~cur ~horizon =
  k.slices <- k.slices + 1;
  th.state <- Running;
  (* Starting a fresh quantum cancels any outstanding compensation ticket
     (paper §4.5: the inflation lasts "until the client starts its next
     quantum"). *)
  th.compensate <- 1.;
  if observed k then emit k (select_event k th ~cpu);
  let slice_left = ref k.quantum in
  let outcome = ref `Preempted in
  (* [cur] is the scheduler's own [Some th] (select returns a preallocated
     option); reusing it keeps the dispatch path from building a fresh one
     per slice. *)
  k.current <- cur;
  (try
     while true do
       match advance k th with
       | `Blocked ->
           outcome := `Blocked;
           raise Exit
       | `Exited ->
           outcome := `Exited;
           raise Exit
       | `Yielded ->
           outcome := `Yielded;
           raise Exit
       | `Compute ->
           if !slice_left = 0 then begin
             outcome := `Preempted;
             raise Exit
           end;
           let budget = min th.c_left !slice_left in
           let budget = min budget (max 1 (horizon - k.now)) in
           k.now <- k.now + budget;
           th.cpu <- th.cpu + budget;
           slice_left := !slice_left - budget;
           th.c_left <- th.c_left - budget;
           if k.now >= horizon then begin
             outcome := `Horizon;
             raise Exit
           end
     done
   with Exit -> ());
  k.current <- None;
  let used = k.quantum - !slice_left in
  let blocked = !outcome = `Blocked in
  (match !outcome with
  | `Blocked | `Exited -> ()
  | `Preempted | `Yielded | `Horizon -> th.state <- Runnable);
  if observed k then begin
    let why =
      match !outcome with
      | `Preempted -> Obs.Event.End_quantum
      | `Yielded -> Obs.Event.End_yield
      | `Blocked -> Obs.Event.End_block
      | `Exited -> Obs.Event.End_exit
      | `Horizon -> Obs.Event.End_horizon
    in
    emit k (preempt_event k th ~used ~quantum:k.quantum ~why)
  end;
  (* Compensation ticket: a thread that gave up the CPU (blocked or yielded)
     after consuming only a fraction f of its quantum has its value inflated
     by 1/f until it next starts a quantum. *)
  let gave_up = match !outcome with `Blocked | `Yielded -> true | _ -> false in
  if gave_up && used < k.quantum then begin
    th.compensate <- float_of_int k.quantum /. float_of_int (max used 1);
    if observed k then
      emit k (compensate_event k th ~factor:th.compensate)
  end;
  k.sched.account th ~used ~quantum:k.quantum ~blocked

let has_live_blocked k =
  Slots.exists_live k.th_slots (fun s -> k.th_tab.(s).state = Blocked)

(* The scheduling loop proceeds in *rounds* anchored at the minimum per-CPU
   clock T (the round floor): every CPU whose clock sits at T first selects
   (in CPU-id order, so replays are deterministic), then the selected
   slices run (again in id order). Splitting select from execution makes
   one round's slices virtually concurrent: a thread woken mid-slice by
   CPU 0 cannot be dispatched by CPU 1 "in the past" at T, and — since
   multi-CPU schedulers dequeue on dispatch and only re-enqueue in [account]
   — no thread is ever picked by two CPUs of the same round. CPUs whose
   clock is ahead of T simply sit the round out. With [cpus = 1] every
   round is exactly one select + one slice at [k.now], byte-identical to
   the historical single-CPU loop. *)
let min_cpu_now k =
  let m = ref k.cpu_now.(0) in
  for c = 1 to cpus k - 1 do
    if k.cpu_now.(c) < !m then m := k.cpu_now.(c)
  done;
  !m

let max_cpu_now k =
  let m = ref k.cpu_now.(0) in
  for c = 1 to cpus k - 1 do
    if k.cpu_now.(c) > !m then m := k.cpu_now.(c)
  done;
  !m

(* earliest clock strictly ahead of the floor [t]; [max_int] if none *)
let next_busy_clock k ~t =
  let m = ref max_int in
  for c = 0 to cpus k - 1 do
    if k.cpu_now.(c) > t && k.cpu_now.(c) < !m then m := k.cpu_now.(c)
  done;
  !m

let run k ~until =
  let deadlocked = ref false in
  let stop = ref false in
  while (not !stop) && min_cpu_now k < until do
    let t = min_cpu_now k in
    k.now <- t;
    wake_timers k;
    (* phase 1: every CPU at the floor picks a thread against the state at
       time T, before any of this round's slices execute *)
    let ran_any = ref false in
    let idle_at_t = ref 0 in
    for cpu = 0 to cpus k - 1 do
      if k.cpu_now.(cpu) = t then begin
        (match k.pre_select with Some f -> f () | None -> ());
        let cur = k.sched.select ~cpu in
        k.sel.(cpu) <- cur;
        match cur with Some _ -> () | None -> incr idle_at_t
      end
      else k.sel.(cpu) <- None
    done;
    (* phase 2: run the round's slices, each starting at T. [sel] is left
       in place so the idle pass below can tell idle CPUs (None at the
       floor) from ones that ran a zero-length slice; phase 1 rewrites
       every entry next round. *)
    for cpu = 0 to cpus k - 1 do
      match k.sel.(cpu) with
      | None -> ()
      | Some th as cur ->
          (* a pre_select hook later in phase 1 (fault injection) may have
             killed an already-dispatched thread; drop that slice *)
          if th.state = Runnable then begin
            ran_any := true;
            k.now <- t;
            (match k.profiler with
            | None -> run_slice k th ~cpu ~cur ~horizon:until
            | Some p ->
                let t0 = Obs.Profile.start p in
                run_slice k th ~cpu ~cur ~horizon:until;
                Obs.Profile.stop p Obs.Profile.Dispatch t0);
            k.cpu_now.(cpu) <- k.now
          end
    done;
    if !idle_at_t > 0 then begin
      (* Idle CPUs advance together to the next thing that can make work
         appear for them: the next *live* timer deadline (stale entries
         left by killed sleepers must not inflate idle_ticks or delay
         termination toward a phantom wakeup) or the next busy CPU's slice
         boundary, clamped to the horizon. *)
      prune_stale_timers k;
      let next_timer =
        if Heap.is_empty k.timers then max_int else Heap.min_key k.timers
      in
      let target = min next_timer (next_busy_clock k ~t) in
      if target < max_int then begin
        let target = min (max target t) until in
        for cpu = 0 to cpus k - 1 do
          match k.sel.(cpu) with
          | None when k.cpu_now.(cpu) = t ->
              k.idle <- k.idle + (target - t);
              k.cpu_now.(cpu) <- target
          | _ -> ()
        done
      end
      else if not !ran_any then begin
        (* nothing ran, nothing sleeping, no CPU ahead: the simulation is
           over — a deadlock if blocked threads remain *)
        if has_live_blocked k then deadlocked := true;
        stop := true
      end
      (* [ran_any] with no timer and no CPU ahead: a zero-length slice kept
         the floor at T; the idle CPUs retry next round. *)
    end
  done;
  Array.fill k.sel 0 (cpus k) None;
  k.now <- (if !stop then min_cpu_now k else max_cpu_now k);
  { ended_at = k.now; idle_ticks = k.idle; deadlocked = !deadlocked; slices = k.slices }

let threads k =
  List.rev
    (Slots.fold_live k.th_slots ~init:[] ~f:(fun acc s -> k.th_tab.(s) :: acc))

let live_thread_count k = Slots.live_count k.th_slots
let thread_slot th = th.tslot
let thread_generation k th = if th.tslot < 0 then -1 else Slots.gen k.th_slots th.tslot

let set_pre_select k f = k.pre_select <- f
let set_profiler k p = k.profiler <- p

(* --- invariant audit --------------------------------------------------- *)

(* Cross-check every thread's [state]/[pending] pair against the wait
   structures that claim it, and vice versa. Pure observation: no kernel
   state is modified, so it is safe to run between any two slices (e.g.
   from a [pre_select] hook). Violations are returned as strings and, when
   the bus has subscribers, emitted as [Invariant_violation] events. *)
let check_invariants k =
  let out = ref [] in
  let report ?th what =
    let who =
      match th with Some t -> actor k t | None -> Obs.Event.kernel_actor
    in
    if observed k then emit k (Obs.Event.Invariant_violation { who; what });
    out := what :: !out
  in
  let vf ?th fmt = Printf.ksprintf (fun s -> report ?th s) fmt in
  let count_in pred lst = List.length (List.filter pred lst) in
  let count_q pred q =
    Queue.fold (fun acc w -> if pred w then acc + 1 else acc) 0 q
  in
  let is_waiting_pending = function
    | Sleeping | Waiting_recv | Waiting_reply | Waiting_replies _ | Waiting_lock
    | Waiting_cond | Waiting_sem | Waiting_join -> true
    | _ -> false
  in
  let has_record = function
    | Sleeping | Waiting_recv | Waiting_reply | Waiting_lock | Waiting_cond
    | Waiting_sem | Waiting_join | Ready_msg | Ready_reply -> true
    | _ -> false
  in
  (* [wait_of] without its precondition: the audit must not trust it *)
  let record th =
    if th.tslot >= 0 && th.tslot < Array.length k.waits then k.waits.(th.tslot)
    else no_wait
  in
  let heap_entries = ref [] in
  Heap.iter k.timers (fun ~key th -> heap_entries := (key, th) :: !heap_entries);
  Slots.iter_live k.th_slots (fun slot ->
      let th = k.th_tab.(slot) in
      if th.tslot <> slot then
        vf ~th "%s: arena slot mismatch (record says %d, table says %d)"
          th.name th.tslot slot;
      (match (th.state, th.pending) with
      | Zombie, Exited -> ()
      | Zombie, _ -> vf ~th "%s: Zombie but pending is not Exited" th.name
      | _, Exited -> vf ~th "%s: pending Exited but state is not Zombie" th.name
      | Blocked, p when not (is_waiting_pending p) ->
          vf ~th "%s: Blocked with a runnable pending state" th.name
      | (Runnable | Running), p when is_waiting_pending p ->
          vf ~th "%s: runnable but pending says it is waiting" th.name
      | _ -> ());
      let w = record th in
      if has_record th.pending && w == no_wait then
        vf ~th "%s: pending state needs a wait record but its slot has none"
          th.name;
      (match th.pending with
      | Sleeping ->
          let until = w.w_until in
          if
            not
              (List.exists
                 (fun (key, t) -> key = until && t == th)
                 !heap_entries)
          then
            vf ~th "%s: Sleeping until %d with no matching timer-heap entry"
              th.name until
      | Waiting_lock ->
          let m = w.w_mutex in
          let n = Waitq.count (fun w -> w == th) m.lock_waiters in
          if n <> 1 then
            vf ~th "%s: Waiting_lock on %s but on its waiter list %d times"
              th.name m.mutex_name n
      | Waiting_cond ->
          let c = w.w_cond in
          let n = Waitq.count (fun w -> w == th) c.cond_waiters in
          if n <> 1 then
            vf ~th "%s: Waiting_cond on %s but on its waiter list %d times"
              th.name c.cond_name n
      | Waiting_sem ->
          let s = w.w_sem in
          let n = Waitq.count (fun w -> w == th) s.sem_waiters in
          if n <> 1 then
            vf ~th "%s: Waiting_sem on %s but on its waiter list %d times"
              th.name s.sem_name n
      | Waiting_recv ->
          let p = w.w_port in
          let n = count_q (fun w -> w == th) p.waiters in
          if n <> 1 then
            vf ~th "%s: Waiting_recv on %s but on its waiter queue %d times"
              th.name p.port_name n
      | Waiting_join ->
          let target = w.w_target in
          let n = Waitq.count (fun w -> w == th) target.joiners in
          if n <> 1 then
            vf ~th "%s: Waiting_join on %s but on its joiner list %d times"
              th.name target.name n;
          if target.state = Zombie then
            vf ~th "%s: Waiting_join on already-exited %s" th.name target.name
      | Waiting_replies s ->
          let blanks =
            Array.fold_left
              (fun acc r -> if r = None then acc + 1 else acc)
              0 s.replies
          in
          if s.outstanding <> blanks then
            vf ~th "%s: scatter outstanding=%d but %d unreplied slots" th.name
              s.outstanding blanks;
          if s.outstanding <= 0 then
            vf ~th "%s: Waiting_replies with outstanding=%d (should be awake)"
              th.name s.outstanding
      | _ -> ());
      List.iter
        (fun m ->
          match m.owner with
          | Some o when o == th -> ()
          | _ ->
              vf ~th "%s: owned-mutex index lists %s, which it does not own"
                th.name m.mutex_name)
        th.owned);
  Vec.iter k.mutexes_v (fun m ->
      (match m.owner with
      | Some o when o.state = Zombie ->
          vf ~th:o "mutex %s: owned by dead thread %s" m.mutex_name o.name
      | Some o ->
          let n = count_in (fun m' -> m' == m) o.owned in
          if n <> 1 then
            vf ~th:o "mutex %s: owner %s lists it in owned-index %d times"
              m.mutex_name o.name n
      | None ->
          if not (Waitq.is_empty m.lock_waiters) then
            vf "mutex %s: free but has %d waiters" m.mutex_name
              (Waitq.length m.lock_waiters));
      Waitq.iter
        (fun w ->
          match w.pending with
          | Waiting_lock when (record w).w_mutex == m -> ()
          | _ ->
              vf ~th:w "mutex %s: waiter %s is not blocked on it" m.mutex_name
                w.name)
        m.lock_waiters);
  Vec.iter k.conds_v (fun c ->
      Waitq.iter
        (fun w ->
          match w.pending with
          | Waiting_cond when (record w).w_cond == c -> ()
          | _ ->
              vf ~th:w "condition %s: waiter %s is not blocked on it"
                c.cond_name w.name)
        c.cond_waiters);
  Vec.iter k.sems_v (fun s ->
      if s.count < 0 then vf "semaphore %s: negative count %d" s.sem_name s.count;
      if s.count > 0 && not (Waitq.is_empty s.sem_waiters) then
        vf "semaphore %s: count %d with %d waiters" s.sem_name s.count
          (Waitq.length s.sem_waiters);
      Waitq.iter
        (fun w ->
          match w.pending with
          | Waiting_sem when (record w).w_sem == s -> ()
          | _ ->
              vf ~th:w "semaphore %s: waiter %s is not blocked on it"
                s.sem_name w.name)
        s.sem_waiters);
  Vec.iter k.ports_v (fun p ->
      Queue.iter
        (fun w ->
          match w.pending with
          | Waiting_recv when (record w).w_port == p -> ()
          | _ ->
              vf ~th:w "port %s: waiter %s is not blocked in receive on it"
                p.port_name w.name)
        p.waiters;
      if Queue.length p.queue > p.capacity then
        vf "port %s: %d queued messages exceed capacity %d" p.port_name
          (Queue.length p.queue) p.capacity);
  List.rev !out

let failures k =
  (* accumulated at death; sort by id to present them in creation order,
     as the historical thread-list filter did *)
  List.sort (fun (a, _) (b, _) -> compare a.id b.id) k.failed

let kill_count k = k.kills

let bus k = k.bus
let cpu_time th = th.cpu
let thread_name th = th.name
let thread_id th = th.id
let thread_state th = th.state
