open Lotto_sim
module Mw = Lotto_workloads.Mutex_workload
module D = Lotto_stats.Descriptive
module H = Lotto_stats.Histogram

type group_result = {
  label : string;
  acquisitions : int;
  mean_wait : float;
  wait_stddev : float;
  histogram : H.t;
}

type t = {
  group_a : group_result;
  group_b : group_result;
  acquisition_ratio : float;
  wait_ratio : float;
}

(* four contenders per group, each holding the mutex 50 ms and then
   computing 50 ms per iteration (the contender's defaults) *)
let group_size = 4

let run ?(seed = 11) ?(duration = Time.seconds 120) () =
  let kernel, ls = Common.lottery_setup ~seed () in
  let base = Common.Ls.base_currency ls in
  let mutex = Kernel.create_mutex kernel ~policy:Types.Lottery_wake "lock" in
  let spawn_group label tickets =
    Array.init group_size (fun i ->
        let name = Printf.sprintf "%s%d" label (i + 1) in
        let c = Mw.spawn_contender kernel ~mutex ~name () in
        ignore (Common.Ls.fund_thread ls (Mw.thread c) ~amount:tickets ~from:base);
        c)
  in
  let ga = spawn_group "A" 200 in
  let gb = spawn_group "B" 100 in
  ignore (Kernel.run kernel ~until:duration);
  let summarize label group =
    let waits = Array.concat (Array.to_list (Array.map Mw.waiting_times group)) in
    let histogram = H.create ~lo:0. ~hi:4. ~buckets:20 in
    Array.iter (H.add histogram) waits;
    {
      label;
      acquisitions = Array.fold_left (fun acc c -> acc + Mw.acquisitions c) 0 group;
      mean_wait = (if Array.length waits = 0 then nan else D.mean waits);
      wait_stddev = (if Array.length waits < 2 then 0. else D.stddev waits);
      histogram;
    }
  in
  let group_a = summarize "A" ga and group_b = summarize "B" gb in
  {
    group_a;
    group_b;
    acquisition_ratio = Common.iratio group_a.acquisitions group_b.acquisitions;
    wait_ratio = Common.ratio group_b.mean_wait group_a.mean_wait;
  }

let print t =
  Common.print_header "Figure 11: lottery-scheduled mutex, groups A:B = 2:1";
  Common.print_row [ "group"; "acquisitions"; "mean wait (s)"; "stddev" ];
  List.iter
    (fun g ->
      Common.print_row
        [
          g.label;
          Printf.sprintf "%5d" g.acquisitions;
          Printf.sprintf "%.3f" g.mean_wait;
          Printf.sprintf "%.3f" g.wait_stddev;
        ])
    [ t.group_a; t.group_b ];
  Common.print_kv "acquisition ratio A:B" "%.2f : 1 (paper: 1.80 : 1)"
    t.acquisition_ratio;
  Common.print_kv "waiting-time ratio A:B" "1 : %.2f (paper: 1 : 2.11)" t.wait_ratio

let to_csv t =
  Common.csv ~header:[ "group"; "acquisitions"; "mean_wait_s"; "wait_stddev_s" ]
    (List.map
       (fun g ->
         [
           g.label;
           string_of_int g.acquisitions;
           Common.f g.mean_wait;
           Common.f g.wait_stddev;
         ])
       [ t.group_a; t.group_b ])
