(** Scenario-driven simulations for the [lottosim] tool.

    A scenario is a small text program describing currencies, threads and a
    run horizon; running it builds a lottery-scheduled kernel, executes it,
    and reports each thread's CPU share plus an execution timeline. It
    makes "what does a 3:2:1 split under my workload look like?" a
    one-file question.

    Syntax (one directive per line, [#] comments):
    {v
    seed 42                    # optional, default 1
    quantum 100ms              # optional, default 100ms
    currency alice 1000 base   # name, funding amount, funding source
    thread a1 spin 1ms 100 alice        # compute-bound: cost per iteration
    thread a2 spin 1ms 200 alice
    thread ivy interactive 20ms 80ms 100 base   # compute then sleep, repeat
    thread srv serve echo 5ms 100 base  # RPC server on port "echo"
    thread cli rpc echo 2ms 100 alice   # think 2ms, call "echo", repeat
    run 60s
    v}

    Durations accept [us], [ms] and [s] suffixes. Threads are funded with
    [amount currency]. [run] must appear exactly once, last.

    [serve] threads loop receive → compute → reply on the named port;
    [rpc] threads loop compute → synchronous call. Ports are created on
    demand, one per distinct name; client/server pairs are what make
    [--spans] and the trace's RPC flow arrows interesting. Calling a port
    nobody serves is legal — the client blocks and its spans are
    orphan-flagged at the horizon. *)

type t

type report = {
  rows : (string * int * float) list;
      (** thread name, cpu ticks, share of total cpu *)
  timeline : string;
  horizon : Lotto_sim.Time.t;
  recorder : Lotto_obs.Recorder.t option;
      (** captured event trace, when [run ~trace:true]; export with
          {!Lotto_obs.Recorder.to_chrome_json} / [to_csv] *)
  stats : string option;
      (** rendered {!Lotto_obs.Metrics.summary} — per-thread wins, quanta,
          compensation counts, wait/dispatch percentiles and the
          observed-vs-entitled share table — when [run ~stats:true]; a
          warning line is appended when the trace ring wrapped *)
  spans : Lotto_obs.Span.t option;
      (** finalized causal span tracer, when [run ~spans:true]; export with
          {!Lotto_obs.Span.to_chrome_json} *)
  prom : string option;
      (** Prometheus text snapshot ({!Lotto_obs.Metrics.to_prom}), when
          [run ~prom:true] *)
  profile : string option;
      (** rendered scheduler phase profile, when [run ~profile_clock] was
          given *)
}

val parse : string -> (t, string) result
val parse_file : string -> (t, string) result

val run :
  ?cpus:int ->
  ?trace:bool ->
  ?trace_capacity:int ->
  ?stats:bool ->
  ?spans:bool ->
  ?prom:bool ->
  ?profile_clock:(unit -> int) ->
  t ->
  report
(** Execute the scenario. [cpus] (default 1) is the number of virtual
    CPUs, each with its own lottery shard: [n > 1] adds ticket-weighted
    placement, hysteresis rebalancing and work stealing, and drives the
    kernel's multi-CPU round loop. [trace] (default false) records the typed event
    stream into a ring buffer of [trace_capacity] events (default 2^20);
    [stats] (default false) accumulates the metrics registry and renders
    its summary against each thread's final ticket entitlement; [spans]
    (default false) attaches a causal span tracer, finalized at the
    horizon; [prom] (default false) renders a Prometheus snapshot of the
    metrics; [profile_clock] (a monotonic nanosecond counter, e.g. built
    on [Unix.gettimeofday]) enables the scheduler phase profiler. *)
