(** Figure 7 — client-server query processing with ticket transfers (§5.3).

    Three clients with an 8:3:1 allocation issue substring-count queries to
    a multithreaded database server that holds no tickets of its own and
    runs entirely on rights transferred from blocked clients. The paper's
    high-priority client issues 20 queries and exits (having seen a large
    initial share); when it finished, the other two had completed about 10
    queries between them; their 3:1 allocation then yields a 7.51:2.69:1
    overall throughput ratio and mean response times of 17.19, 43.19 and
    132.20 s. *)

type client_result = {
  name : string;
  tickets : int;
  completions : int;
  completion_times : Lotto_sim.Time.t array;
  mean_response : float;  (** seconds *)
  last_result : int option;  (** substring count from the final query *)
}

type t = {
  clients : client_result array;  (** A, B, C *)
  served_total : int;
  b_c_completions_when_a_done : int * int;
  phase1_responses : float array;
      (** mean response times (s) over the contended phase, i.e. completions
          before A's exit — the regime the paper's means reflect *)
}

val run :
  ?seed:int ->
  ?duration:Lotto_sim.Time.t ->
  ?query_cost:Lotto_sim.Time.t ->
  unit ->
  t
(** Defaults: 800 s horizon, 8 s query cost, 3 workers, A exits after 20
    queries. *)

val print : t -> unit

val to_csv : t -> string
(** Serialize the result for external plotting. *)
