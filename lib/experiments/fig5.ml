open Lotto_sim
module Spinner = Lotto_workloads.Spinner

type t = {
  window : Time.t;
  rates_a : float array;
  rates_b : float array;
  overall_ratio : float;
}

(* the paper's averaging window *)
let window = Time.seconds 8

let simulate ~seed ~duration =
  let kernel, ls = Common.lottery_setup ~seed () in
  let a = Spinner.spawn kernel ~name:"A" ~window () in
  let b = Spinner.spawn kernel ~name:"B" ~window () in
  let base = Common.Ls.base_currency ls in
  ignore (Common.Ls.fund_thread ls (Spinner.thread a) ~amount:200 ~from:base);
  ignore (Common.Ls.fund_thread ls (Spinner.thread b) ~amount:100 ~from:base);
  ignore (Kernel.run kernel ~until:duration);
  let per_second counter = Spinner.rate_per_second counter ~upto:duration in
  {
    window;
    rates_a = per_second a;
    rates_b = per_second b;
    overall_ratio = Common.iratio (Spinner.iterations a) (Spinner.iterations b);
  }

(* The whole figure is one 200-second kernel (its windows are slices of a
   single timeline, not independent replications), so the task list is a
   singleton: it rides the same harness for uniformity, and map_tasks runs
   a single task inline whatever [jobs] says. *)
let run ?(seed = 51) ?(duration = Time.seconds 200) ?(jobs = 1) () =
  (Lotto_par.Pool.map_tasks ~jobs
     (fun seed -> simulate ~seed ~duration)
     [| seed |]).(0)

let window_ratios t =
  Array.init
    (min (Array.length t.rates_a) (Array.length t.rates_b))
    (fun i -> Common.ratio t.rates_a.(i) t.rates_b.(i))

let print t =
  Common.print_header "Figure 5: fairness over 8-second windows (2:1, 200s)";
  Common.print_row [ "window"; "A iter/s"; "B iter/s"; "ratio" ];
  Array.iteri
    (fun i ra ->
      let rb = t.rates_b.(i) in
      Common.print_row
        [
          Printf.sprintf "%3d-%3ds"
            (i * t.window / Time.seconds 1)
            ((i + 1) * t.window / Time.seconds 1);
          Printf.sprintf "%8.1f" ra;
          Printf.sprintf "%8.1f" rb;
          Printf.sprintf "%5.2f" (Common.ratio ra rb);
        ])
    t.rates_a;
  Common.print_kv "overall ratio" "%.3f : 1 (paper: 2.01 : 1)" t.overall_ratio

let to_csv t =
  Common.csv ~header:[ "window_start_s"; "a_iter_per_s"; "b_iter_per_s"; "ratio" ]
    (Array.to_list
       (Array.mapi
          (fun i ra ->
            [
              string_of_int (i * t.window / Time.seconds 1);
              Common.f ra;
              Common.f t.rates_b.(i);
              Common.f (Common.ratio ra t.rates_b.(i));
            ])
          t.rates_a))
