open Lotto_sim
module Series = Lotto_stats.Window.Series

type server = {
  srv_port : Types.port;
  corpus : string;
  mutable served : int;
}

let start_server kernel ~name ?(workers = 3)
    ?(query_cost = Time.seconds 2) ~corpus () =
  if workers <= 0 then invalid_arg "Db.start_server: workers <= 0";
  let srv_port = Kernel.create_port kernel ~name:(name ^ ":port") in
  let server = { srv_port; corpus; served = 0 } in
  for i = 1 to workers do
    ignore
      (Kernel.spawn kernel ~name:(Printf.sprintf "%s:worker%d" name i) (fun () ->
           while true do
             let msg = Api.receive srv_port in
             Api.compute query_cost;
             let count =
               Corpus.count_substring ~haystack:corpus ~needle:msg.payload
             in
             server.served <- server.served + 1;
             Api.reply msg (string_of_int count)
           done))
  done;
  server

let queries_served s = s.served

type client = {
  th : Types.thread;
  responses : Series.t; (* time = completion instant, value = latency (s) *)
  mutable completions : int;
  mutable last_result : int option;
}

let spawn_client kernel server ~name ~query ?max_queries
    ?(start_at = 0) () =
  let responses = Series.create () in
  let cell = ref None in
  let th =
    Kernel.spawn kernel ~name (fun () ->
        let self = Option.get !cell in
        if start_at > 0 then Api.sleep start_at;
        let continue () =
          match max_queries with None -> true | Some m -> self.completions < m
        in
        while continue () do
          let t0 = Api.now () in
          let result = Api.rpc server.srv_port query in
          let t1 = Api.now () in
          self.completions <- self.completions + 1;
          self.last_result <- int_of_string_opt result;
          Series.record responses ~time:t1 ~value:(Time.to_seconds (t1 - t0))
        done)
  in
  let c = { th; responses; completions = 0; last_result = None } in
  cell := Some c;
  c

let thread c = c.th
let completions c = c.completions
let last_result c = c.last_result
let response_times c = Series.values c.responses
let completion_times c = Series.times c.responses

let mean_response_time c =
  let xs = response_times c in
  if Array.length xs = 0 then nan else Lotto_stats.Descriptive.mean xs
