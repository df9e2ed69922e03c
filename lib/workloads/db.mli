(** The multithreaded client-server text-search application of §5.3
    (Figure 7).

    The server owns a port and several worker threads; each query is a
    case-insensitive substring count over the server's corpus, answered via
    synchronous RPC. As in the paper, the server holds {e no} tickets of its
    own: it runs entirely on rights transferred from blocked clients, so
    client ticket allocations govern both throughput and response time. *)

type server

val start_server :
  Lotto_sim.Kernel.t ->
  name:string ->
  ?workers:int ->
  ?query_cost:Lotto_sim.Time.t ->
  corpus:string ->
  unit ->
  server
(** [workers] defaults to 3; [query_cost] is the CPU charged per query
    (default 2 s — a full scan of a few-hundred-KiB corpus on the paper's
    25 MHz DECStation took seconds). *)

val queries_served : server -> int

type client

val spawn_client :
  Lotto_sim.Kernel.t ->
  server ->
  name:string ->
  query:string ->
  ?max_queries:int ->
  ?start_at:Lotto_sim.Time.t ->
  unit ->
  client
(** The client issues queries back-to-back. With [max_queries] it exits
    after that many completions (the paper's high-priority client issues 20
    and terminates); otherwise it runs forever. *)

val thread : client -> Lotto_sim.Types.thread
val completions : client -> int
val last_result : client -> int option
(** Match count returned by the most recent query. *)

val response_times : client -> float array
(** Response times in virtual seconds, in completion order. *)

val completion_times : client -> Lotto_sim.Time.t array
(** Virtual time of each completion — Figure 7's cumulative-queries
    series. *)

val mean_response_time : client -> float
(** In virtual seconds; [nan] before the first completion. *)
