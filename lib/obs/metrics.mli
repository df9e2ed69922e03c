(** Per-thread metrics registry and fairness gauge.

    Subscribes to a {!Bus} and accumulates, per thread: lottery wins
    (selections), quanta ticks received, compensation-ticket activations,
    block counts, donation/lock/RPC counters, and two latency
    distributions — {e wait time} (block → wake) and {e dispatch latency}
    (runnable → selected) — recorded into bounded-memory {!Hdr} histograms
    (O(1) per sample, no per-sample allocation, quantiles within
    {!Hdr.max_relative_error}). No raw sample is kept. The fairness
    gauge checks observed CPU share against ticket entitlement with
    {!Lotto_stats.Chi_square}, the paper's own accuracy measure
    (§2, Figures 1–5). *)

type t
(** Memory: the registry keeps one row per live thread it has observed,
    plus the rows of the last 1,024 threads to exit. That is more exited
    threads than any shipped scenario, experiment or service run has, so
    their output is the same as with every row kept. Beyond it the oldest
    death is evicted (counted by {!evicted}): its row no longer appears in
    {!snapshots}, {!summary} or {!to_prom}, and its quanta stay in
    {!total_quanta}.

    A row is about 1,784 words (14.3 KB on 64-bit), 1,750 of them its two
    {!Hdr} histograms, so a registry holds at most (live threads + 1,024)
    × ~1,784 words however many threads come and go: under churn (a
    funded thread spawned every 10 ms of virtual time, the oldest beyond
    32 killed) the live heap stops growing once 1,024 threads have died
    (it grew 1,810 words per killed thread while every dead row was kept).
    What still grows: a row's per-quantum table gains one entry per
    distinct quantum the thread ran under. *)

val create : unit -> t
(** An event that can name a thread after its exit (its last [Preempt], a
    drop-oldest [Rpc_shed]) is dropped when the thread's row is gone and
    its tid is not above every evicted tid, so an evicted thread never
    gets a new row. A thread that exits while running keeps its last
    slice: the kernel publishes its [Exit] before that slice's [Preempt],
    and the newest death is never the one evicted. (After an eviction, a
    drop-oldest [Rpc_shed] that is the first event a registry attached
    mid-run sees for an older live thread is dropped by the same rule.) *)

val attach : t -> Bus.t -> unit
(** Raises [Invalid_argument] if already attached. *)

val detach : t -> unit
val on_event : t -> int -> Event.t -> unit
(** Feed one event directly (what {!attach} wires up).

    Once the event's thread has a row, this allocates nothing, hashes
    nothing, makes no polymorphic comparison and calls no C. The row is
    found through a 256-slot direct-mapped cache on the tid's low bits;
    the table behind it is read only on a miss (a thread's first event, or
    a tid whose slot another tid took since). A [Preempt]'s ticks go to a
    running sum for the quantum in force; the thread's per-quantum table
    is written only when that quantum changes, and every read
    ({!fairness}) folds the running sum in. Latencies go to the row's
    {!Hdr} histograms, which allocate nothing either. The
    [obs-overhead/metrics-event:minor-words] row of the overhead gate
    holds this at zero. *)

(** Accumulated counters for one thread. Latencies are in µs of virtual
    time. *)
type snapshot = {
  tid : int;
  name : string;
  wins : int;  (** times selected to run (= lotteries won) *)
  quanta : int;  (** CPU ticks received *)
  compensations : int;  (** compensation-ticket activations (§4.5) *)
  blocks : int;
  donations : int;  (** transfers made while blocked (§4.6) *)
  lock_acquires : int;
  lock_contended : int;  (** acquisitions that had to queue *)
  rpcs : int;  (** requests sent *)
  rpcs_served : int;  (** requests picked up for service *)
  rpcs_shed : int;  (** requests shed by bounded-port admission control *)
  wait : Hdr.t;  (** block → wake durations (private copy) *)
  dispatch : Hdr.t;  (** runnable → selected durations (private copy) *)
}

val snapshots : t -> snapshot list
(** One per row held (live threads and retained exited ones), in
    first-seen order. *)

val total_quanta : t -> int
(** CPU ticks received by every thread observed, evicted rows included. *)

val evicted : t -> int
(** Rows of exited threads evicted so far, beyond the 1,024 retained. *)

(** Observed-vs-entitled share comparison for one thread. *)
type share = {
  s_tid : int;
  s_name : string;
  s_quanta : int;
  observed : float;  (** share of total quanta ticks among compared threads *)
  entitled : float;  (** normalized entitlement *)
}

val fairness : t -> entitled:(int * float) list -> share list * float option
(** [fairness m ~entitled] compares observed CPU shares against the given
    [(tid, weight)] entitlements (weights need not be normalized; threads
    not listed are excluded from the comparison, and a tid listed more than
    once counts once — the first entry wins). The second component is
    the chi-square upper-tail p-value of observed CPU time, binned into
    quantum-sized slices, against entitlement-proportional expectations —
    high values mean the allocation is statistically consistent with the
    ticket split — or [None] when it is undefined (no CPU observed, fewer
    than two threads, or a zero entitlement). CPU time rather than raw win
    counts is compared because compensation tickets (§3.4) intentionally
    inflate an I/O-bound thread's win rate while keeping its CPU share
    proportional.

    Raises [Invalid_argument] for a listed tid that has no row while some
    evicted row's tid is not below it: the registry cannot tell an evicted
    thread from one never observed, and reading an evicted thread as
    absent would quietly change the comparison. *)

val summary : ?entitled:(int * float) list -> t -> string
(** Render the whole registry as text: a per-thread counter table with
    wait-time and dispatch-latency percentiles (read off the histograms in
    O(buckets) — no sorting, no sample copies), plus (with [entitled]) the
    observed-vs-entitled share table and chi-square fairness verdict. *)

val profile : Profile.t -> string
(** Render a scheduler phase profile as a summary section: per-phase
    (valuation / draw / dispatch / publish) count, total host time and
    percentiles. Printed by [lottosim --profile]. *)

val to_prom : ?namespace:string -> t -> string
(** Prometheus text exposition (version 0.0.4) of the registry: one
    [counter] family per counter with [thread]/[tid] labels, and [summary]
    families for wait/dispatch latency with quantiles
    0.5/0.9/0.99/0.999 read off the histograms. [namespace] (default
    ["lotto"]) prefixes every family name. Suitable for writing to a
    textfile-collector path from a long-running sim. *)

val prom_escape : string -> string
(** A Prometheus label value with backslash, double quote and newline
    escaped as the text exposition format requires. Shared by every
    exporter of that format. *)

val prom_family :
  Buffer.t ->
  name:string ->
  help:string ->
  [ `Counter of (string * int) list
  | `Gauge of (string * int) list
  | `Summary of (string * Hdr.t) list ] ->
  unit
(** Append one family in the text exposition format: its [# HELP] and
    [# TYPE] lines, then the samples of each [(labels, value)] row in
    order. [labels] is the row's label list without braces, values
    already {!prom_escape}d, e.g. [tenant="a"]. A counter or gauge row is
    one sample; a summary row is its quantiles 0.5/0.9/0.99/0.999 read off
    the histogram (none when it is empty), then [_sum] and [_count]. The
    writer behind every exporter of that format. *)
