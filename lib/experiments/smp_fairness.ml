open Lotto_sim
module Ls = Lotto_sched.Lottery_sched
module Spinner = Lotto_workloads.Spinner
module Chi = Lotto_stats.Chi_square

type sample = {
  s_time : Time.t;
  s_migrations : int;
  s_steals : int;
  s_imbalance : float;
}

type config = {
  label : string;
  cpus : int;
  names : string array;
  observed : int array;
  entitled : float array;
  aggregate_p : float;
  per_shard_p : (int * int * float) array;
  migrations : int;
  steals : int;
  shard_mass : float array;
  series : sample list;
}

type t = {
  global : config;
  sharded : config;
  threads : int;
  duration : Time.t;
}

let chisq_p ~observed ~weights =
  let total = Array.fold_left ( + ) 0 observed in
  let wsum = Array.fold_left ( +. ) 0. weights in
  if total = 0 || wsum <= 0. || Array.length observed < 2 then nan
  else
    let expected =
      Array.map (fun w -> float_of_int total *. w /. wsum) weights
    in
    let stat = Chi.statistic ~observed ~expected in
    Chi.p_value ~statistic:stat
      ~df:(Chi.degrees_of_freedom ~cells:(Array.length observed))

let seed = 1994
let threads = 24
let cpus = 4

(* points in the migration / imbalance time series *)
let samples = 24

let one_config ~label ~duration ~amounts ~cpus () =
  let n = Array.length amounts in
  let rng = Lotto_prng.Rng.create ~seed () in
  (* one shard per CPU: with cpus = 1, the global lottery every thread
     competes in *)
  let ls = Ls.create ~shards:cpus ~rng () in
  let kernel = Kernel.create ~cpus ~sched:(Ls.sched ls) () in
  let base = Ls.base_currency ls in
  let spinners =
    Array.init n (fun i ->
        let sp = Spinner.spawn kernel ~name:(Printf.sprintf "t%02d" i) () in
        ignore
          (Ls.fund_thread ls (Spinner.thread sp) ~amount:amounts.(i) ~from:base);
        sp)
  in
  (* run in chunks so the migration counter and the shard ticket-mass
     imbalance can be sampled as a time series *)
  let series = ref [] in
  let chunk = max 1 (duration / samples) in
  for k = 1 to samples do
    ignore (Kernel.run kernel ~until:(min duration (chunk * k)));
    if cpus > 1 then begin
      let masses = Array.init (Ls.shards ls) (Ls.shard_ticket_mass ls) in
      let total = Array.fold_left ( +. ) 0. masses in
      let ideal = total /. float_of_int cpus in
      let imb =
        if ideal <= 0. then 0.
        else
          Array.fold_left
            (fun acc m -> max acc (abs_float (m -. ideal) /. ideal))
            0. masses
      in
      series :=
        {
          s_time = min duration (chunk * k);
          s_migrations = Ls.migrations ls;
          s_steals = Ls.steals ls;
          s_imbalance = imb;
        }
        :: !series
    end
  done;
  ignore (Kernel.run kernel ~until:duration);
  let q = Kernel.quantum kernel in
  let observed =
    Array.map (fun sp -> Kernel.cpu_time (Spinner.thread sp) / q) spinners
  in
  let entitled =
    Array.map (fun sp -> Ls.thread_entitlement ls (Spinner.thread sp)) spinners
  in
  let aggregate_p = chisq_p ~observed ~weights:entitled in
  (* per-shard: each shard is one CPU's own lottery, so within a shard the
     members' CPU time should split proportionally to their entitlements
     (renormalized over the shard's membership) *)
  let per_shard_p =
    if cpus = 1 then [||]
    else
      Array.init (Ls.shards ls) (fun s ->
          let members = ref [] in
          Array.iteri
            (fun i sp ->
              if Ls.shard_of ls (Spinner.thread sp) = s then
                members := i :: !members)
            spinners;
          let idx = Array.of_list (List.rev !members) in
          let p =
            if Array.length idx < 2 then nan
            else
              chisq_p
                ~observed:(Array.map (fun i -> observed.(i)) idx)
                ~weights:(Array.map (fun i -> entitled.(i)) idx)
          in
          (s, Array.length idx, p))
  in
  let shard_mass =
    if cpus = 1 then [||]
    else Array.init (Ls.shards ls) (Ls.shard_ticket_mass ls)
  in
  {
    label;
    cpus;
    names = Array.map Spinner.(fun sp -> Kernel.thread_name (thread sp)) spinners;
    observed;
    entitled;
    aggregate_p;
    per_shard_p;
    migrations = Ls.migrations ls;
    steals = Ls.steals ls;
    shard_mass;
    series = List.rev !series;
  }

let run ?(duration = Time.seconds 120) () =
  (* a 5-way ticket spread, repeated: enough weight diversity to make the
     chi-square informative while no single thread is entitled to more
     than one CPU's worth (which no scheduler could deliver) *)
  let amounts = Array.init threads (fun i -> 100 * (1 + (i mod 5))) in
  let global = one_config ~label:"global" ~duration ~amounts ~cpus:1 () in
  let sharded = one_config ~label:"sharded" ~duration ~amounts ~cpus () in
  { global; sharded; threads; duration }

let min_shard_p t =
  Array.fold_left
    (fun acc (_, _, p) -> if Float.is_nan p then acc else min acc p)
    infinity t.sharded.per_shard_p

let print_config c =
  let total = Array.fold_left ( + ) 0 c.observed in
  let esum = Array.fold_left ( +. ) 0. c.entitled in
  Common.print_kv
    (Printf.sprintf "%s (%d cpu%s)" c.label c.cpus
       (if c.cpus = 1 then "" else "s"))
    "%d quanta served, aggregate chi-square p = %.3f" total c.aggregate_p;
  Array.iteri
    (fun i name ->
      Common.print_row
        [
          name;
          Printf.sprintf "observed %5.1f%%"
            (100. *. float_of_int c.observed.(i) /. float_of_int (max 1 total));
          Printf.sprintf "entitled %5.1f%%" (100. *. c.entitled.(i) /. esum);
        ])
    c.names;
  if c.cpus > 1 then begin
    Array.iter
      (fun (s, members, p) ->
        Common.print_kv
          (Printf.sprintf "shard %d" s)
          "%d threads, mass %.0f, chi-square p = %s" members c.shard_mass.(s)
          (if Float.is_nan p then "n/a" else Printf.sprintf "%.3f" p))
      c.per_shard_p;
    Common.print_kv "migrations / steals" "%d / %d" c.migrations c.steals;
    match c.series with
    | [] -> ()
    | series ->
        let last = List.nth series (List.length series - 1) in
        Common.print_kv "final ticket imbalance" "%.3f of ideal (band 0.25)"
          last.s_imbalance
  end

let print t =
  Common.print_header
    (Printf.sprintf
       "SMP fairness: global lottery vs %d-way sharded (%d threads, %ds)"
       t.sharded.cpus t.threads (t.duration / Time.seconds 1));
  print_config t.global;
  print_config t.sharded;
  Common.print_kv "min per-shard p" "%.3f (pass at p >= 0.01)" (min_shard_p t);
  Common.print_kv "note" "%s"
    "sharding guarantees proportional share per shard; aggregate share \
     tracks entitlement only to within the imbalance band"

let to_csv t =
  Common.csv
    ~header:[ "time_s"; "migrations"; "steals"; "ticket_imbalance" ]
    (List.map
       (fun s ->
         [
           string_of_int (s.s_time / Time.seconds 1);
           string_of_int s.s_migrations;
           string_of_int s.s_steals;
           Common.f s.s_imbalance;
         ])
       t.sharded.series)
