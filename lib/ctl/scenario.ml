open Lotto_sim
module Ls = Lotto_sched.Lottery_sched

let max_amount = Lotto_tickets.Funding.max_amount

type workload =
  | Spin of { cost : int }
  | Interactive of { burst : int; pause : int }
  | Serve of { port : string; cost : int }  (* receive, compute, reply *)
  | Rpc of { target : string; think : int }  (* compute, then call *)

type thread_spec = { t_name : string; workload : workload; amount : int; from : string }
type currency_spec = { c_name : string; c_amount : int; c_from : string }

type t = {
  seed : int;
  quantum : int;
  currencies : currency_spec list; (* in declaration order *)
  threads : thread_spec list;
  horizon : int;
}

type report = {
  rows : (string * int * float) list;
  timeline : string;
  horizon : Time.t;
  recorder : Lotto_obs.Recorder.t option;
  stats : string option;
  spans : Lotto_obs.Span.t option;
  prom : string option;
  profile : string option;
}

(* --- parsing ------------------------------------------------------------- *)

let duration word =
  let num suffix =
    let body = String.sub word 0 (String.length word - String.length suffix) in
    int_of_string_opt body
  in
  let ends s = String.length word > String.length s && Filename.check_suffix word s in
  if ends "us" then Option.map Time.us (num "us")
  else if ends "ms" then Option.map Time.ms (num "ms")
  else if ends "s" then Option.map Time.seconds (num "s")
  else None

let parse text =
  let err line fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt
  in
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  let rec go (acc : t) = function
    | [] ->
        if acc.horizon > 0 then Ok acc
        else Error "scenario needs a final \"run <duration>\" directive"
    | (ln, _) :: _ when acc.horizon > 0 -> err ln "nothing may follow \"run\""
    | (ln, line) :: rest -> (
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "seed"; s ] -> (
            match int_of_string_opt s with
            | Some seed -> go { acc with seed } rest
            | None -> err ln "bad seed %S" s)
        | [ "quantum"; d ] -> (
            match duration d with
            | Some quantum when quantum > 0 -> go { acc with quantum } rest
            | _ -> err ln "bad quantum %S" d)
        | [ "currency"; c_name; amount; c_from ] -> (
            match int_of_string_opt amount with
            | Some c_amount when c_amount > max_amount ->
                err ln "currency amount %d above the bound %d" c_amount max_amount
            | Some c_amount when c_amount >= 0 ->
                go
                  { acc with currencies = acc.currencies @ [ { c_name; c_amount; c_from } ] }
                  rest
            | _ -> err ln "bad currency amount %S" amount)
        | "thread" :: t_name :: spec -> (
            let mk workload amount from =
              match int_of_string_opt amount with
              | Some amount when amount > max_amount ->
                  err ln "funding amount %d above the bound %d" amount max_amount
              | Some amount when amount >= 0 ->
                  go
                    {
                      acc with
                      threads = acc.threads @ [ { t_name; workload; amount; from } ];
                    }
                    rest
              | _ -> err ln "bad funding amount %S" amount
            in
            match spec with
            | [ "spin"; cost; amount; from ] -> (
                match duration cost with
                | Some cost when cost > 0 -> mk (Spin { cost }) amount from
                | _ -> err ln "bad spin cost %S" cost)
            | [ "interactive"; burst; pause; amount; from ] -> (
                match (duration burst, duration pause) with
                | Some burst, Some pause when burst > 0 && pause >= 0 ->
                    mk (Interactive { burst; pause }) amount from
                | _ -> err ln "bad interactive durations")
            | [ "serve"; port; cost; amount; from ] -> (
                match duration cost with
                | Some cost when cost > 0 -> mk (Serve { port; cost }) amount from
                | _ -> err ln "bad service cost %S" cost)
            | [ "rpc"; target; think; amount; from ] -> (
                match duration think with
                | Some think when think > 0 -> mk (Rpc { target; think }) amount from
                | _ -> err ln "bad think time %S" think)
            | _ ->
                err ln
                  "expected: thread NAME spin COST AMOUNT CUR | thread NAME \
                   interactive BURST PAUSE AMOUNT CUR | thread NAME serve \
                   PORT COST AMOUNT CUR | thread NAME rpc PORT THINK AMOUNT \
                   CUR")
        | [ "run"; d ] -> (
            match duration d with
            | Some horizon when horizon > 0 -> go { acc with horizon } rest
            | _ -> err ln "bad run duration %S" d)
        | _ -> err ln "unparseable directive %S" line)
  in
  go { seed = 1; quantum = Time.ms 100; currencies = []; threads = []; horizon = 0 } lines

let parse_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      parse text

(* --- running --------------------------------------------------------------- *)

let run ?(cpus = 1) ?(trace = false) ?(trace_capacity = 1 lsl 20)
    ?(stats = false) ?(spans = false) ?(prom = false) ?profile_clock t =
  if cpus < 1 then invalid_arg "Scenario.run: cpus < 1";
  let rng = Lotto_prng.Rng.create ~seed:t.seed () in
  (* one lottery shard per virtual CPU *)
  let ls = Ls.create ~shards:cpus ~rng () in
  let kernel = Kernel.create ~quantum:t.quantum ~cpus ~sched:(Ls.sched ls) () in
  let timeline = Timeline.attach kernel ~bucket:(max (Time.ms 100) (t.horizon / 60)) () in
  (* recorder, metrics, span tracer and timeline are independent
     subscribers on the kernel's event bus; each sees the full stream *)
  let recorder =
    if trace then begin
      let r = Lotto_obs.Recorder.create ~capacity:trace_capacity () in
      Lotto_obs.Recorder.attach r (Kernel.bus kernel);
      Some r
    end
    else None
  in
  let metrics =
    if stats || prom then begin
      let m = Lotto_obs.Metrics.create () in
      Lotto_obs.Metrics.attach m (Kernel.bus kernel);
      Some m
    end
    else None
  in
  let span_tracer =
    if spans then begin
      let s = Lotto_obs.Span.create () in
      Lotto_obs.Span.attach s (Kernel.bus kernel);
      Some s
    end
    else None
  in
  let profiler =
    Option.map
      (fun clock ->
        let p = Lotto_obs.Profile.create ~clock () in
        Kernel.set_profiler kernel (Some p);
        Ls.set_profiler ls (Some p);
        p)
      profile_clock
  in
  let lookup name =
    match Lotto_tickets.Funding.find_currency (Ls.funding ls) name with
    | Some c -> c
    | None -> failwith (Printf.sprintf "unknown currency %S" name)
  in
  List.iter
    (fun c ->
      let target = Ls.make_currency ls c.c_name in
      ignore (Ls.fund_currency ls ~target ~amount:c.c_amount ~from:(lookup c.c_from)))
    t.currencies;
  (* one port per distinct name mentioned by serve/rpc threads; an rpc
     target nobody serves is legal (the client blocks and its spans are
     orphan-flagged at the horizon) but is usually a typo *)
  let ports = Hashtbl.create 8 in
  let port_of name =
    match Hashtbl.find_opt ports name with
    | Some p -> p
    | None ->
        let p = Kernel.create_port kernel ~name in
        Hashtbl.add ports name p;
        p
  in
  List.iter
    (fun spec ->
      match spec.workload with
      | Serve { port; _ } | Rpc { target = port; _ } -> ignore (port_of port)
      | Spin _ | Interactive _ -> ())
    t.threads;
  let threads =
    List.map
      (fun spec ->
        let body () =
          match spec.workload with
          | Spin { cost } ->
              while true do
                Api.compute cost
              done
          | Interactive { burst; pause } ->
              while true do
                Api.compute burst;
                Api.sleep pause
              done
          | Serve { port; cost } ->
              let p = port_of port in
              while true do
                let m = Api.receive p in
                Api.compute cost;
                Api.reply m m.Types.payload
              done
          | Rpc { target; think } ->
              let p = port_of target in
              while true do
                Api.compute think;
                ignore (Api.rpc p "req")
              done
        in
        let th = Kernel.spawn kernel ~name:spec.t_name body in
        ignore (Ls.fund_thread ls th ~amount:spec.amount ~from:(lookup spec.from));
        (spec.t_name, th))
      t.threads
  in
  ignore (Kernel.run kernel ~until:t.horizon);
  Option.iter
    (fun s -> Lotto_obs.Span.finalize s ~now:(Kernel.now kernel))
    span_tracer;
  (* entitlements before teardown: backing-ticket value at final exchange
     rates, the yardstick for the observed-vs-entitled fairness table *)
  let stats_text =
    if not stats then None
    else
      Option.map
        (fun m ->
          let entitled =
            List.map (fun (_, th) -> (Kernel.thread_id th, Ls.thread_entitlement ls th)) threads
          in
          let s = Lotto_obs.Metrics.summary ~entitled m in
          (* a wrapped trace silently looking complete is the trap; say so
             next to the numbers people actually read *)
          match recorder with
          | Some r when Lotto_obs.Recorder.dropped r > 0 ->
              s
              ^ Printf.sprintf
                  "\nwarning: trace window wrapped — %d oldest events \
                   dropped (kept %d of %d)\n"
                  (Lotto_obs.Recorder.dropped r)
                  (Lotto_obs.Recorder.length r)
                  (Lotto_obs.Recorder.seen r)
          | _ -> s)
        metrics
  in
  let prom_text = if prom then Option.map Lotto_obs.Metrics.to_prom metrics else None in
  let profile_text = Option.map Lotto_obs.Metrics.profile profiler in
  Timeline.detach timeline;
  Option.iter Lotto_obs.Recorder.detach recorder;
  Option.iter Lotto_obs.Metrics.detach metrics;
  Option.iter Lotto_obs.Span.detach span_tracer;
  Kernel.set_profiler kernel None;
  let total = List.fold_left (fun acc (_, th) -> acc + Kernel.cpu_time th) 0 threads in
  {
    rows =
      List.map
        (fun (name, th) ->
          ( name,
            Kernel.cpu_time th,
            float_of_int (Kernel.cpu_time th) /. float_of_int (max 1 total) ))
        threads;
    timeline = Timeline.render timeline;
    horizon = t.horizon;
    recorder;
    stats = stats_text;
    spans = span_tracer;
    prom = prom_text;
    profile = profile_text;
  }
