(** Core simulator types: threads, ports, mutexes, scheduler interface.

    Everything is mutually recursive (threads hold continuations whose steps
    mention ports and mutexes; schedulers see threads), so the whole object
    graph lives here and {!Kernel} / {!Api} operate on it. *)

type time = Time.t

exception Rejected of string
(** Delivered into a client's body when an {!Api.rpc} to a bounded port is
    shed by admission control: under [Reject_new] the new request bounces
    immediately; under [Drop_oldest] the evicted request's sender gets it.
    The payload is the port name. Scatter-gather sends ({!Api.rpc_many})
    bypass capacity and are never shed. *)

exception Killed
(** Delivered into a thread's body by {!Kernel.kill}: its exception
    handlers (e.g. [Api.with_lock] cleanup) run before the thread dies. *)

(* ------------------------------------------------------------------ *)
(* Threads                                                            *)
(* ------------------------------------------------------------------ *)

type thread = {
  id : int;
  mutable tslot : int;
      (** dense arena index assigned by the kernel at spawn; [-1] once the
          thread is reaped and its slot recycled. Schedulers index their
          per-thread state arrays by it (guarding against recycling with a
          physical-equality check on the stored thread). *)
  name : string;
  mutable state : state;
  mutable pending : pending;
  mutable c_left : int;  (** ticks left in the current [Compute] request *)
  mutable c_kc : (unit, step) Effect.Deep.continuation;
      (** the continuation of a [Compute] request or of a unit wait
          ([Sleeping], [Waiting_lock], [Waiting_cond], [Waiting_sem],
          [Waiting_join], [Ready_unit]); {!vacant_kc} before the first *)
  mutable cpu : int;  (** total virtual CPU ticks consumed *)
  mutable compensate : float;
      (** compensation-ticket factor (>= 1), applied by proportional-share
          schedulers to the thread's draw weight; reset by the kernel each
          time the thread starts a fresh quantum (paper §4.5) *)
  mutable donating_to : thread list;
      (** targets of this thread's current ticket transfers, if blocked;
          several when a transfer is divided across servers (§3.1) *)
  mutable donors : thread list;
      (** reverse index of [donating_to]: threads currently transferring to
          us, one entry per transfer, so a dying thread scrubs its donors in
          O(degree) instead of scanning every thread *)
  mutable owned : mutex list;
      (** mutexes this thread currently owns, so robust handoff at death is
          O(held locks) instead of a sweep over every mutex *)
  joiners : thread Waitq.t;  (** threads blocked in [Api.join] on us, in arrival order *)
  mutable servicing : int list;
      (** msg_ids of requests this thread has received and not yet replied
          to, innermost first — the span-parent stack: an RPC sent while
          servicing is a child span of the head *)
}

and state = Runnable | Running | Blocked | Zombie

(* What a suspended thread is waiting for. Apart from the first three and
   the scatter-gather pair these are constant constructors: a unit
   continuation (a sleep, lock, condition, semaphore or join, and the
   [Ready_unit] that resumes one) is in [c_kc], and the wait object, the
   deadline, the delivered message or reply and the message and string
   continuations are in the kernel's per-slot wait record ({!Kernel}), so
   installing a state allocates nothing. [Ready_*] states mean the value
   the thread waited for has arrived; the kernel feeds it in when the
   scheduler next picks the thread. The kernel's effect handlers install
   these states themselves. *)
and pending =
  | Not_started of (unit -> unit)
  | Compute  (** the request's state is in [c_left] and [c_kc] *)
  | Sleeping  (** until the wait record's deadline *)
  | Waiting_recv  (** on the wait record's port *)
  | Waiting_reply
  | Waiting_replies of scatter
      (** blocked on several concurrent RPCs (divided ticket transfer) *)
  | Waiting_lock  (** on the wait record's mutex *)
  | Waiting_cond  (** on the wait record's condition, then its mutex *)
  | Waiting_sem  (** on the wait record's semaphore *)
  | Waiting_join  (** on the wait record's target thread *)
  | Ready_unit
  | Ready_msg  (** the message is in the wait record *)
  | Ready_reply  (** the reply is in the wait record *)
  | Ready_replies of string list * (string list, step) Effect.Deep.continuation
  | Exited

and scatter = {
  replies : string option array;
  mutable outstanding : int;
  ks : (string list, step) Effect.Deep.continuation;
}

(* The outcome of running a thread's continuation until its next request.
   The handler that took the request has already installed the thread's
   [pending] state, so a step only says what to do next. *)
and step =
  | S_continue  (** runnable now: advance the thread again *)
  | S_blocked  (** waiting (pending says on what) *)
  | S_yielded  (** gave up the rest of its quantum *)
  | S_done  (** the body returned *)
  | S_failed of exn  (** the body raised *)

(* ------------------------------------------------------------------ *)
(* IPC                                                                *)
(* ------------------------------------------------------------------ *)

and message = {
  msg_id : int;
  sender : thread;  (** blocked in [Waiting_reply]/[Waiting_replies] *)
  payload : string;
  sent_at : time;
  slot : int;  (** reply position for scatter-gather sends; 0 otherwise *)
}

and shed_policy =
  | Reject_new  (** bounce the arriving request; the queue is untouched *)
  | Drop_oldest
      (** evict the oldest queued single-shot request to admit the new
          one (only plain {!Api.rpc} messages are eviction candidates) *)

and port = {
  port_id : int;
  port_name : string;
  queue : message Queue.t;  (** sent but not yet received *)
  waiters : thread Queue.t;  (** server threads blocked in receive *)
  capacity : int;  (** max queued messages; [max_int] = unbounded *)
  shed : shed_policy;  (** admission policy once [queue] is full *)
  mutable shed_count : int;  (** requests shed at this port so far *)
  rej : exn;
      (** preallocated [Rejected port_name], so the shed decision path
          allocates nothing *)
}

(* ------------------------------------------------------------------ *)
(* Mutexes                                                            *)
(* ------------------------------------------------------------------ *)

and wake_policy =
  | Fifo  (** conventional mutex: longest waiter acquires next *)
  | Lottery_wake
      (** paper §6.1: on release, hold a lottery among the waiters (the
          scheduler's [pick_waiter] decides, by funding) *)

and mutex = {
  mutex_id : int;
  mutex_name : string;
  policy : wake_policy;
  mutable owner : thread option;
  lock_waiters : thread Waitq.t;  (** arrival order *)
  mutable acquisitions : int;
}

(* CThreads-style condition variable: waiting atomically releases the
   associated mutex; woken threads reacquire it before returning. *)
and condition = {
  cond_id : int;
  cond_name : string;
  cond_policy : wake_policy;
  cond_waiters : thread Waitq.t;  (** arrival order *)
  mutable signals : int;
}

(* Counting semaphore, the other classic CThreads primitive. A lottery
   wake policy makes V() prefer funded waiters, like the mutex in §6.1. *)
and semaphore = {
  sem_id : int;
  sem_name : string;
  sem_policy : wake_policy;
  mutable count : int;
  sem_waiters : thread Waitq.t;  (** arrival order *)
}

(* ------------------------------------------------------------------ *)
(* Scheduler interface                                                *)
(* ------------------------------------------------------------------ *)

(* The kernel drives an abstract scheduler through this record. The
   donate/revoke callbacks carry the paper's ticket transfers: the kernel
   announces "blocked thread [src] should fund [dst]"; proportional-share
   schedulers implement it with transfer tickets, others ignore it. *)
and sched = {
  sched_name : string;
  max_cpus : int;
      (** how many virtual CPUs the scheduler can serve: [select ~cpu]
          accepts [cpu < max_cpus], and with more than one the same thread
          is never selected by two CPUs for overlapping slices (dequeue on
          dispatch). [Kernel.create] refuses a larger [cpus]. *)
  attach : thread -> unit;  (** thread created (initially runnable) *)
  detach : thread -> unit;  (** thread exited *)
  ready : thread -> unit;  (** thread became runnable *)
  unready : thread -> unit;  (** thread blocked *)
  select : cpu:int -> thread option;
      (** choose among runnable threads for virtual CPU [cpu]; called once
          per quantum per CPU (always [~cpu:0] on a single-CPU kernel) *)
  account : thread -> used:int -> quantum:int -> blocked:bool -> unit;
      (** the selected thread consumed [used] of [quantum] and then either
          blocked ([blocked = true]) or was preempted / yielded *)
  donate : src:thread -> dst:thread -> unit;
      (** [src] (blocked) should fund [dst]. May be called several times
          with distinct targets while [src] stays blocked: the transfer is
          then divided, each target receiving an equal share of [src]'s
          value (§3.1). *)
  revoke : src:thread -> unit;  (** withdraw all of [src]'s transfers *)
  revoke_from : src:thread -> dst:thread -> unit;
      (** withdraw only the transfer from [src] to [dst] (one server of a
          divided transfer replied) *)
  pick_waiter : thread list -> thread option;
      (** winner among blocked waiters for a [Lottery_wake] mutex,
          condition or semaphore; [None] falls back to FIFO order *)
}

(* A continuation captured once and never resumed: the vacant value of a
   continuation field, so the field needs no option box. One per type of
   answer, each captured by its own performed effect. *)
let vacant (type a) () : (a, step) Effect.Deep.continuation =
  let module V = struct
    type _ Effect.t += Park : a Effect.t
  end in
  let parked : (a, step) Effect.Deep.continuation option ref = ref None in
  let effc (type b) (e : b Effect.t) :
      ((b, step) Effect.Deep.continuation -> step) option =
    match e with
    | V.Park ->
        Some
          (fun kc ->
            parked := Some kc;
            S_blocked)
    | _ -> None
  in
  ignore
    (Effect.Deep.match_with
       (fun () -> ignore (Effect.perform V.Park))
       ()
       { retc = (fun () -> S_done); exnc = raise; effc });
  Option.get !parked

(* the vacant value of [thread.c_kc] *)
let vacant_kc : (unit, step) Effect.Deep.continuation = vacant ()

type run_summary = {
  ended_at : time;
  idle_ticks : int;
  deadlocked : bool;
  slices : int;  (** scheduling decisions taken *)
}
