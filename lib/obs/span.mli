(** Causal span tracer for RPC requests.

    Every RPC request is a {e span}: its id is the kernel [msg_id] (unique
    per kernel), its parent is the span the sender was itself servicing
    when it sent (carried on [Event.Rpc_send]), so nested RPC chains —
    client → server → backend — form trees. Subscribing a tracer to the
    kernel {!Bus} reconstructs every span's life from the event stream
    alone:

    - [Rpc_send] opens the span (pending in the port queue),
    - [Rpc_recv] marks it served (some server thread is working on it),
    - [Rpc_reply] closes it,
    - [Rpc_reply_dropped] closes it as {!Dropped},
    - [Rpc_shed] closes it as {!Dropped} (admission control on a bounded
      port evicted a queued request, or — for a request rejected before
      its [Rpc_send] — opens and immediately drops the span, so shed
      traffic is never invisible in traces),
    - [Exit] of either endpoint flags it {!Orphaned} — a span is never
      silently leaked, which the chaos soak asserts over kill-heavy runs.

    Memory: finished spans beyond [retain] are evicted oldest first
    ({!evicted} counts them). In-flight spans are always kept, and so is
    an [Orphaned] span while its other endpoint lives: a late
    [Rpc_reply_dropped] or [Rpc_shed] settles it as {!Dropped}, and the
    other endpoint's [Exit] finishes it, since with both endpoints dead no
    further event can reach it. *)

type status =
  | Pending  (** sent, not yet picked up by a server *)
  | Serving  (** picked up, reply outstanding *)
  | Closed  (** replied normally *)
  | Dropped of string
      (** the server replied but delivery was impossible (client dead),
          reason as carried on [Rpc_reply_dropped] — or admission control
          shed the request, reason ["shed: <policy>"] as carried on
          [Rpc_shed] *)
  | Orphaned of string
      (** an endpoint died (or the run ended) before the reply: flagged,
          not leaked. Reasons: ["client died"], ["server died"],
          ["unfinished at finalize"]. *)

type span = {
  id : int;  (** = kernel [msg_id] *)
  port : string;
  client : Event.actor;
  parent : int option;  (** enclosing span of the sender, if any *)
  sent_at : int;
  mutable server : Event.actor option;
  mutable recv_at : int option;
  mutable closed_at : int option;  (** set for [Closed]/[Dropped]/[Orphaned] *)
  mutable status : status;
  mutable children : int list;  (** child span ids, reverse send order *)
}

type t

val create : ?retain:int -> unit -> t
(** [retain] (default 65536, must be positive) bounds how many {e finished}
    spans are kept; older finished spans are evicted. *)

val attach : t -> Bus.t -> unit
(** Raises [Invalid_argument] if already attached. *)

val detach : t -> unit

val finalize : t -> now:int -> unit
(** End of run: every span still [Pending]/[Serving] becomes
    [Orphaned "unfinished at finalize"]. Idempotent thereafter. *)

val iter : t -> (span -> unit) -> unit
(** Retained spans in send order. *)

val spans : t -> span list
(** Retained spans in send order. *)

val evicted : t -> int

val violations : t -> string list
(** Structural impossibilities seen in the event stream — a recv for an
    unknown or already-received span, a reply to an unknown or
    already-closed span, a duplicate span id. Empty on a healthy kernel,
    including under fault injection: kills produce {!Orphaned}/{!Dropped}
    spans, never violations. *)

type stats = {
  st_total : int;  (** spans ever opened *)
  st_closed : int;
  st_dropped : int;
  st_orphaned : int;
  st_open : int;  (** still pending/serving (0 after {!finalize}) *)
}

val stats : t -> stats
(** Counts over {e all} spans ever opened (eviction does not forget). *)

val to_chrome_json : t -> string
(** Chrome trace-event JSON of the retained spans as async ["b"]/["e"]
    pairs (one track per request id, named after the port) with
    client/server/status/parent under ["args"], loadable in Perfetto
    alongside (or instead of) the {!Recorder} trace. Orphaned and dropped
    spans close at their flag time and carry their status. *)
