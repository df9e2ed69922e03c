(* Scenario-driven lottery-scheduling simulator: describe currencies,
   threads and a horizon in a small text file; get CPU shares, an execution
   timeline, and (optionally) a Chrome trace and a metrics summary.

     dune exec bin/lottosim.exe -- scenario.txt
     dune exec bin/lottosim.exe -- scenario.txt --stats --profile
     dune exec bin/lottosim.exe -- scenario.txt --trace out.json --csv out.csv
     dune exec bin/lottosim.exe -- scenario.txt --spans spans.json --prom metrics.prom

   Example scenario:

     currency alice 1000 base
     currency bob 1000 base
     thread a1 spin 1ms 100 alice
     thread a2 spin 1ms 200 alice
     thread b1 spin 1ms 300 bob
     thread ivy interactive 20ms 80ms 50 base
     run 60s

   --trace writes Chrome trace-event JSON loadable in chrome://tracing or
   https://ui.perfetto.dev (RPC requests appear as flow arrows across the
   thread tracks); --csv writes the same event window as CSV; --stats
   prints per-thread wins/quanta/wait-time percentiles plus an
   observed-vs-entitled share table with a chi-square fairness verdict;
   --spans writes the causal RPC span trees as their own Chrome trace;
   --prom writes a Prometheus text snapshot of the metrics; --profile
   prints where the host-clock cost of each slice went. *)

open Cmdliner

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let run path cpus trace_out csv_out stats spans_out prom_out profile =
  if cpus < 1 then `Error (true, "--cpus must be >= 1")
  else
  match Lotto_ctl.Scenario.parse_file path with
  | Error m -> `Error (false, m)
  | exception Sys_error m -> `Error (false, m)
  | Ok scenario -> (
      try
      let want_trace = trace_out <> None || csv_out <> None in
      let profile_clock =
        if profile then
          Some (fun () -> int_of_float (Unix.gettimeofday () *. 1e9))
        else None
      in
      let report =
        Lotto_ctl.Scenario.run ~cpus ~trace:want_trace ~stats
          ~spans:(spans_out <> None) ~prom:(prom_out <> None) ?profile_clock
          scenario
      in
      Printf.printf "after %s of virtual time:\n\n"
        (Format.asprintf "%a" Lotto_sim.Time.pp report.horizon);
      Printf.printf "  %-14s %12s %8s\n" "thread" "cpu (ticks)" "share";
      List.iter
        (fun (name, cpu, share) ->
          Printf.printf "  %-14s %12d %7.1f%%\n" name cpu (100. *. share))
        report.rows;
      print_newline ();
      print_string report.timeline;
      (match report.stats with
      | Some s ->
          print_newline ();
          print_string s
      | None -> ());
      (match report.profile with
      | Some p ->
          print_newline ();
          print_string p
      | None -> ());
      (match report.recorder with
      | Some r ->
          (match trace_out with
          | Some out ->
              write_file out (Lotto_obs.Recorder.to_chrome_json r);
              Printf.printf "\nwrote %d events to %s (chrome://tracing / Perfetto)\n"
                (Lotto_obs.Recorder.length r) out;
              if Lotto_obs.Recorder.dropped r > 0 then
                Printf.printf "warning: ring buffer dropped %d earlier events\n"
                  (Lotto_obs.Recorder.dropped r)
          | None -> ());
          (match csv_out with
          | Some out ->
              write_file out (Lotto_obs.Recorder.to_csv r);
              Printf.printf "wrote event CSV to %s\n" out
          | None -> ())
      | None -> ());
      (match (report.spans, spans_out) with
      | Some tracer, Some out ->
          write_file out (Lotto_obs.Span.to_chrome_json tracer);
          let st = Lotto_obs.Span.stats tracer in
          Printf.printf
            "wrote %d RPC spans to %s (%d closed, %d dropped, %d orphaned)\n"
            st.Lotto_obs.Span.st_total out st.Lotto_obs.Span.st_closed
            st.Lotto_obs.Span.st_dropped st.Lotto_obs.Span.st_orphaned
      | _ -> ());
      (match (report.prom, prom_out) with
      | Some text, Some out ->
          write_file out text;
          Printf.printf "wrote Prometheus snapshot to %s\n" out
      | _ -> ());
      `Ok ()
      with Sys_error m -> `Error (false, m))

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SCENARIO" ~doc:"Scenario file.")

let cpus_arg =
  Arg.(
    value & opt int 1
    & info [ "cpus" ] ~docv:"N"
        ~doc:"Number of virtual CPUs (default 1). With $(docv) > 1 the \
              lottery is sharded one shard per CPU — ticket-weighted \
              placement, hysteresis rebalancing and work stealing — and \
              the kernel runs its multi-CPU round loop; with 1 the \
              lottery is one shard and output is byte-identical to \
              older releases.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record the typed kernel event stream and write Chrome \
              trace-event JSON to $(docv) (open in chrome://tracing or \
              Perfetto).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Write the recorded event stream as CSV to $(docv).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print per-thread scheduler metrics: lottery wins, quanta, \
              compensation activations, wait-time and dispatch-latency \
              percentiles, and an observed-vs-entitled CPU share table \
              checked with a chi-square fairness test.")

let spans_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans" ] ~docv:"FILE"
        ~doc:"Trace every RPC request as a causal span (send, service, \
              reply; nested RPCs parented to the enclosing request) and \
              write the span trees as Chrome trace-event JSON to $(docv) \
              for Perfetto.")

let prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"FILE"
        ~doc:"Write a Prometheus text-exposition snapshot of the \
              per-thread metrics (counters plus wait/dispatch latency \
              quantiles) to $(docv).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Profile the scheduler's own host-clock cost per phase \
              (valuation, draw, dispatch, event publish) and print the \
              breakdown.")

let cmd =
  let doc = "run a lottery-scheduling scenario file" in
  Cmd.v
    (Cmd.info "lottosim" ~doc)
    Term.(
      ret
        (const run $ path_arg $ cpus_arg $ trace_arg $ csv_arg $ stats_arg
       $ spans_arg $ prom_arg $ profile_arg))

let () = exit (Cmd.eval cmd)
