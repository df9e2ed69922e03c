(* Controlling media rates at the OS level (paper §5.4): three viewers of
   the same video get a 3:2:1 split, retargeted to 3:1:2 mid-run by simple
   ticket inflation — no cooperation from the viewers required.

   Run with: dune exec examples/video_rates.exe *)

open Core

let () =
  let rng = Rng.create ~seed:8 () in
  let ls = Lottery_sched.create ~rng () in
  let kernel = Kernel.create ~sched:(Lottery_sched.sched ls) () in
  let base = Lottery_sched.base_currency ls in
  (* a viewer decodes one 100 ms frame per iteration *)
  let viewer name = Spinner.spawn kernel ~name ~cost:(Time.ms 100) () in
  let a = viewer "A" and b = viewer "B" and c = viewer "C" in
  let _ta = Lottery_sched.fund_thread ls (Spinner.thread a) ~amount:300 ~from:base in
  let tb = Lottery_sched.fund_thread ls (Spinner.thread b) ~amount:200 ~from:base in
  let tc = Lottery_sched.fund_thread ls (Spinner.thread c) ~amount:100 ~from:base in
  let report lo hi =
    List.iter
      (fun v ->
        Printf.printf "  %s: %.2f fps"
          (Kernel.thread_name (Spinner.thread v))
          (float_of_int (Spinner.iterations_between v ~lo ~hi)
          /. Time.to_seconds (hi - lo)))
      [ a; b; c ];
    print_newline ()
  in
  ignore (Kernel.run kernel ~until:(Time.seconds 60));
  Printf.printf "first minute (3:2:1):\n";
  report 0 (Time.seconds 60);
  (* the user drags a slider: B down, C up *)
  Lottery_sched.set_ticket_amount ls tb 100;
  Lottery_sched.set_ticket_amount ls tc 200;
  ignore (Kernel.run kernel ~until:(Time.seconds 120));
  Printf.printf "second minute (3:1:2):\n";
  report (Time.seconds 60) (Time.seconds 120)
