open Lotto_sim
module Db = Lotto_workloads.Db
module Corpus = Lotto_workloads.Corpus

type client_result = {
  name : string;
  tickets : int;
  completions : int;
  completion_times : Time.t array;
  mean_response : float;
  last_result : int option;
}

type t = {
  clients : client_result array;
  served_total : int;
  b_c_completions_when_a_done : int * int;
  phase1_responses : float array;
}

let run ?(seed = 7) ?(duration = Time.seconds 800)
    ?(query_cost = Time.seconds 8) () =
  let kernel, ls = Common.lottery_setup ~seed () in
  let corpus = Corpus.generate ~seed:1994 ~size_bytes:(256 * 1024) () in
  let server =
    Db.start_server kernel ~name:"db" ~workers:3 ~query_cost ~corpus ()
  in
  let base = Common.Ls.base_currency ls in
  let mk name tickets max_queries =
    (* Clients start 1 ms in so the (deliberately ticketless) server's
       workers can park in [receive] first — on Mach the server initializes
       and blocks before clients arrive. *)
    let c =
      Db.spawn_client kernel server ~name ~query:"lottery" ?max_queries
        ~start_at:(Time.ms 1) ()
    in
    ignore (Common.Ls.fund_thread ls (Db.thread c) ~amount:tickets ~from:base);
    c
  in
  let a = mk "A" 800 (Some 20) in
  let b = mk "B" 300 None in
  let c = mk "C" 100 None in
  ignore (Kernel.run kernel ~until:duration);
  let result name tickets client =
    {
      name;
      tickets;
      completions = Db.completions client;
      completion_times = Db.completion_times client;
      mean_response = Db.mean_response_time client;
      last_result = Db.last_result client;
    }
  in
  let a_r = result "A" 8 a and b_r = result "B" 3 b and c_r = result "C" 1 c in
  (* B and C progress at the instant A finished its 20th query *)
  let a_done =
    if Array.length a_r.completion_times = 0 then duration
    else a_r.completion_times.(Array.length a_r.completion_times - 1)
  in
  let count_before times = Array.fold_left (fun n t -> if t <= a_done then n + 1 else n) 0 times in
  (* response-time means restricted to the contended phase (A still active),
     the regime the paper's 17.19 / 43.19 / 132.20 s means reflect *)
  let phase1_mean client =
    let times = Db.completion_times client and values = Db.response_times client in
    let acc = ref 0. and n = ref 0 in
    Array.iteri (fun i t -> if t <= a_done then begin acc := !acc +. values.(i); incr n end) times;
    if !n = 0 then nan else !acc /. float_of_int !n
  in
  {
    clients = [| a_r; b_r; c_r |];
    served_total = Db.queries_served server;
    b_c_completions_when_a_done =
      (count_before b_r.completion_times, count_before c_r.completion_times);
    phase1_responses = [| phase1_mean a; phase1_mean b; phase1_mean c |];
  }

let print t =
  Common.print_header "Figure 7: query processing, 8:3:1 clients, ticketless server";
  Common.print_row [ "client"; "tickets"; "queries"; "mean resp (s)"; "matches" ];
  Array.iter
    (fun c ->
      Common.print_row
        [
          c.name;
          string_of_int c.tickets;
          Printf.sprintf "%4d" c.completions;
          Printf.sprintf "%8.2f" c.mean_response;
          (match c.last_result with Some n -> string_of_int n | None -> "-");
        ])
    t.clients;
  let b, c = t.b_c_completions_when_a_done in
  Common.print_kv "B+C queries at A's exit" "%d (paper: 10)" (b + c);
  Common.print_kv "server queries served" "%d" t.served_total;
  let resp i = t.phase1_responses.(i) in
  Common.print_kv "contended resp. means" "%.1f / %.1f / %.1f s (paper: 17.2 / 43.2 / 132.2)"
    (resp 0) (resp 1) (resp 2);
  Common.print_kv "contended resp. ratios" "1 : %.2f : %.2f (paper: 1 : 2.51 : 7.69)"
    (Common.ratio (resp 1) (resp 0))
    (Common.ratio (resp 2) (resp 0))

let to_csv t =
  Common.csv
    ~header:[ "client"; "tickets"; "completions"; "mean_response_s"; "contended_mean_s" ]
    (Array.to_list t.clients
    |> List.mapi (fun i c ->
           [
             c.name;
             string_of_int c.tickets;
             string_of_int c.completions;
             Common.f c.mean_response;
             Common.f t.phase1_responses.(i);
           ]))
