(* Command-line driver regenerating every figure and table from the paper's
   evaluation, the §6 proposals implemented as extensions, and the
   ablations. With [--csv DIR] each experiment also writes a plottable
   <name>.csv. With [--jobs N] sweep-style experiments run their
   independent replications on N domains (results are merged by task
   index, so output is byte-identical to [--jobs 1]). *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

type entry = {
  e_name : string;
  descr : string;
  exec : csv_dir:string option -> jobs:int -> unit;
}

(* run once; print the table; optionally serialize *)
let entry (type a) e_name descr (run : jobs:int -> unit -> a)
    (print : a -> unit) (to_csv : a -> string) =
  {
    e_name;
    descr;
    exec =
      (fun ~csv_dir ~jobs ->
        let t = run ~jobs () in
        print t;
        match csv_dir with
        | None -> ()
        | Some dir ->
            let path = Filename.concat dir (e_name ^ ".csv") in
            write_file path (to_csv t);
            Printf.printf "  [csv written to %s]\n" path);
  }

let service_horizon () =
  match Sys.getenv_opt "LOTTO_SERVICE_HORIZON_S" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some (n * 1_000_000)
      | _ -> None)
  | None -> None

let experiments =
  [
    entry "fig4" "relative rate accuracy (2 tasks, ratios 1..10)"
      (fun ~jobs () -> Lotto_exp.Fig4.run ~jobs ())
      Lotto_exp.Fig4.print Lotto_exp.Fig4.to_csv;
    entry "fig5" "fairness over 8s windows (2:1 for 200s)"
      (fun ~jobs () -> Lotto_exp.Fig5.run ~jobs ())
      Lotto_exp.Fig5.print Lotto_exp.Fig5.to_csv;
    entry "fig6" "Monte-Carlo with error^2 ticket inflation"
      (fun ~jobs:_ () -> Lotto_exp.Fig6.run ())
      Lotto_exp.Fig6.print Lotto_exp.Fig6.to_csv;
    entry "fig7" "client-server DB with ticket transfers (8:3:1)"
      (fun ~jobs:_ () -> Lotto_exp.Fig7.run ())
      Lotto_exp.Fig7.print Lotto_exp.Fig7.to_csv;
    entry "fig8" "video viewers, 3:2:1 changed to 3:1:2 mid-run"
      (fun ~jobs:_ () -> Lotto_exp.Fig8.run ())
      Lotto_exp.Fig8.print Lotto_exp.Fig8.to_csv;
    entry "fig9" "currencies insulate loads (B3 joins at half time)"
      (fun ~jobs:_ () -> Lotto_exp.Fig9.run ())
      Lotto_exp.Fig9.print Lotto_exp.Fig9.to_csv;
    entry "fig11" "lottery-scheduled mutex (groups 2:1)"
      (fun ~jobs:_ () -> Lotto_exp.Fig11.run ())
      Lotto_exp.Fig11.print Lotto_exp.Fig11.to_csv;
    entry "compensation" "sec. 4.5 compensation tickets on/off"
      (fun ~jobs () -> Lotto_exp.Compensation.run ~jobs ())
      Lotto_exp.Compensation.print Lotto_exp.Compensation.to_csv;
    entry "overhead" "sec. 5.6 scheduling overhead across policies"
      (fun ~jobs () -> Lotto_exp.Overhead.run ~jobs ())
      Lotto_exp.Overhead.print Lotto_exp.Overhead.to_csv;
    entry "mem" "sec. 6.2 inverse-lottery page replacement"
      (fun ~jobs:_ () -> Lotto_exp.Mem.run ())
      Lotto_exp.Mem.print Lotto_exp.Mem.to_csv;
    entry "io" "sec. 6 lottery-scheduled I/O bandwidth"
      (fun ~jobs:_ () -> Lotto_exp.Io.run ())
      Lotto_exp.Io.print Lotto_exp.Io.to_csv;
    entry "disk" "sec. 6 (ext) disk-bandwidth lotteries vs FCFS/SSTF"
      (fun ~jobs:_ () -> Lotto_exp.Disk_exp.run ())
      Lotto_exp.Disk_exp.print Lotto_exp.Disk_exp.to_csv;
    entry "switch" "sec. 6 (ext) virtual circuits on a congested switch port"
      (fun ~jobs:_ () -> Lotto_exp.Switch_exp.run ())
      Lotto_exp.Switch_exp.print Lotto_exp.Switch_exp.to_csv;
    entry "disk-service" "sec. 6 (ext) in-kernel disk with separate disk tickets"
      (fun ~jobs:_ () -> Lotto_exp.Disk_service_exp.run ())
      Lotto_exp.Disk_service_exp.print Lotto_exp.Disk_service_exp.to_csv;
    entry "manager" "sec. 6.3 manager threads across CPU and I/O"
      (fun ~jobs:_ () -> Lotto_exp.Manager_exp.run ())
      Lotto_exp.Manager_exp.print Lotto_exp.Manager_exp.to_csv;
    entry "search-length" "sec. 4.2 list-lottery search-length optimizations"
      (fun ~jobs () -> Lotto_exp.Search_length.run ~jobs ())
      Lotto_exp.Search_length.print Lotto_exp.Search_length.to_csv;
    entry "quantum" "ablation: quantum size vs short-term fairness"
      (fun ~jobs () -> Lotto_exp.Ablation_quantum.run ~jobs ())
      Lotto_exp.Ablation_quantum.print Lotto_exp.Ablation_quantum.to_csv;
    entry "variance" "ablation: lottery vs stride variance"
      (fun ~jobs () -> Lotto_exp.Ablation_variance.run ~jobs ())
      Lotto_exp.Ablation_variance.print Lotto_exp.Ablation_variance.to_csv;
    entry "mc-convergence" "ablation: Monte-Carlo funding function exponent"
      (fun ~jobs () -> Lotto_exp.Ablation_mc.run ~jobs ())
      Lotto_exp.Ablation_mc.print Lotto_exp.Ablation_mc.to_csv;
    (* CI's smoke step shortens the service experiments through
       LOTTO_SERVICE_HORIZON_S; unset, they run at full published scale. *)
    entry "service-insulation"
      "tenant insulation under saturation (bounded ports, per-tenant SLOs)"
      (fun ~jobs:_ () ->
        Lotto_exp.Service_insulation.run ?horizon:(service_horizon ()) ())
      Lotto_exp.Service_insulation.print Lotto_exp.Service_insulation.to_csv;
    entry "service-vs-decay" "multi-tenant SLOs: lottery currencies vs decay-usage"
      (fun ~jobs:_ () ->
        Lotto_exp.Service_vs_decay.run ?horizon:(service_horizon ()) ())
      Lotto_exp.Service_vs_decay.print Lotto_exp.Service_vs_decay.to_csv;
    entry "service-capacity" "capacity-planning curves: shed fraction vs offered load"
      (fun ~jobs () ->
        Lotto_exp.Service_capacity.run ?horizon:(service_horizon ()) ~jobs ())
      Lotto_exp.Service_capacity.print Lotto_exp.Service_capacity.to_csv;
    entry "smp-fairness" "global vs sharded lottery fairness on a multi-CPU kernel"
      (fun ~jobs:_ () -> Lotto_exp.Smp_fairness.run ())
      Lotto_exp.Smp_fairness.print Lotto_exp.Smp_fairness.to_csv;
  ]

open Cmdliner

let run_some names list_only csv_dir jobs =
  if list_only then begin
    List.iter (fun e -> Printf.printf "%-14s %s\n" e.e_name e.descr) experiments;
    `Ok ()
  end
  else if jobs < 1 then `Error (false, "--jobs must be at least 1")
  else begin
    (match csv_dir with
    | Some dir -> Lotto_exp.Common.mkdir_p dir
    | None -> ());
    let targets =
      match names with
      | [] -> Some experiments
      | names -> (
          try
            Some
              (List.map
                 (fun n -> List.find (fun e -> e.e_name = n) experiments)
                 names)
          with Not_found -> None)
    in
    match targets with
    | None -> `Error (false, "unknown experiment; try --list")
    | Some targets ->
        List.iter (fun e -> e.exec ~csv_dir ~jobs) targets;
        `Ok ()
  end

let names_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to run (default: all).")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List available experiments.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write <experiment>.csv files to $(docv).")

let jobs_arg =
  Arg.(
    value
    & opt int (Lotto_par.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run each sweep experiment's independent replications on $(docv) \
           domains (default: the recommended domain count for this machine). \
           Results are merged by task index, so output is byte-identical to \
           --jobs 1.")

let cmd =
  let doc = "Regenerate the paper's evaluation figures and tables" in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(
      ret (const run_some $ names_arg $ list_arg $ csv_arg $ jobs_arg))

let () = exit (Cmd.eval cmd)
