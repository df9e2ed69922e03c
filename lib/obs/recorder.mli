(** Bounded ring-buffer trace recorder.

    Subscribes to a {!Bus} and keeps the most recent [capacity] timestamped
    events; older ones are overwritten and counted in {!dropped}. The
    captured window exports to Chrome trace-event JSON (loadable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}) and to CSV. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 65536 events; must be positive. *)

val attach : t -> Bus.t -> unit
(** Start recording from [bus]. Raises [Invalid_argument] if already
    attached. *)

val detach : t -> unit
(** Stop recording (keeps the captured events). Idempotent. *)

val record : t -> int -> Event.t -> unit
(** Feed one event directly (what {!attach} wires up); exposed for tests
    and for recording without a bus. *)

val capacity : t -> int
val length : t -> int
(** Events currently held (≤ capacity). *)

val seen : t -> int
(** Total events observed, including overwritten ones. *)

val dropped : t -> int
(** [max 0 (seen - capacity)]: events lost to wraparound. *)

val events : t -> (int * Event.t) list
(** Captured [(time, event)] pairs, oldest first. *)

val clear : t -> unit

(** {1 Exporters} *)

val to_chrome_json : t -> string
(** Chrome trace-event format: a JSON array of objects with ["name"],
    ["ph"], ["ts"] (µs), ["pid"] and ["tid"] fields. Scheduling slices
    appear as ["B"]/["E"] duration pairs per thread track (opened by
    [Select], closed by the matching [Preempt]); RPC requests additionally
    emit flow events — ["s"] on the client at [Rpc_send], ["t"] on the
    server at [Rpc_recv], ["f"] back on the client at [Rpc_reply], all
    bound by [id = msg_id] — so Perfetto draws each request as a connected
    arrow path across thread tracks; everything else becomes thread-scoped
    instant events with details under ["args"]. The first record is
    metadata (["ph":"M"], name [trace_window]) carrying [seen], [capacity]
    and [dropped], so a wrapped window is detectable from the file alone.
    All strings are JSON-escaped, and every record's [pid] is 1. *)

val to_csv : t -> string
(** One row per event: [time_us,event,tid,thread,detail], with RFC-4180
    quoting on the name/detail columns. When the ring wrapped, a comment
    row [# dropped N oldest events ...] follows the header so the loss is
    visible in the file itself. *)

val json_escape : string -> string
(** JSON string-body escaping used by the exporters; shared with
    {!Span.to_chrome_json}. *)
