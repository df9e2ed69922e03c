open Lotto_sim
module Mc = Lotto_workloads.Monte_carlo
module Rng = Lotto_prng.Rng

type task_result = {
  name : string;
  start_at : Time.t;
  cumulative : int array;
  final_trials : int;
  final_error : float;
  final_estimate : float;
}

type t = { window : Time.t; tasks : task_result array }

(* recording bin width of each task's trial counter *)
let window = Time.seconds 8

let run ?(seed = 6) ?(duration = Time.seconds 600)
    ?(stagger = Time.seconds 120) () =
  let kernel, ls = Common.lottery_setup ~seed () in
  (* One currency shared by the mutually trusting experiments: inflation
     inside it cannot affect other users (not that there are any here). *)
  let mc = Common.Ls.make_currency ls "monte-carlo" in
  ignore (Common.Ls.fund_currency ls ~target:mc ~amount:1000 ~from:(Common.Ls.base_currency ls));
  let master_rng = Rng.create ~algo:Splitmix64 ~seed () in
  let tasks =
    Array.init 3 (fun i ->
        let name = Printf.sprintf "mc%d" (i + 1) in
        let rng = Rng.split master_rng in
        let start_at = i * stagger in
        (name, start_at, Mc.spawn kernel ls ~name ~rng ~from:mc ~window ~start_at ()))
  in
  ignore (Kernel.run kernel ~until:duration);
  {
    window;
    tasks =
      Array.map
        (fun (name, start_at, task) ->
          {
            name;
            start_at;
            cumulative = Mc.cumulative task ~upto:duration;
            final_trials = Mc.trials task;
            final_error = Mc.relative_error task;
            final_estimate = Mc.estimate task;
          })
        tasks;
  }

let print t =
  Common.print_header
    "Figure 6: staggered Monte-Carlo tasks, ticket value = error^2";
  Common.print_row [ "task"; "start"; "final trials"; "rel. error"; "estimate(pi/4=0.7854)" ];
  Array.iter
    (fun task ->
      Common.print_row
        [
          task.name;
          Printf.sprintf "%4ds" (task.start_at / Time.seconds 1);
          Printf.sprintf "%9d" task.final_trials;
          Printf.sprintf "%.2e" task.final_error;
          Printf.sprintf "%.6f" task.final_estimate;
        ])
    t.tasks;
  (* sample the cumulative curves sparsely: converging lines are the result *)
  let samples = 10 in
  Common.print_row ("t(s)" :: Array.to_list (Array.map (fun task -> task.name) t.tasks));
  let n = Array.fold_left (fun acc task -> max acc (Array.length task.cumulative)) 0 t.tasks in
  for s = 1 to samples do
    let idx = min (n - 1) ((s * n / samples) - 1) in
    Common.print_row
      (Printf.sprintf "%4d" ((idx + 1) * t.window / Time.seconds 1)
      :: Array.to_list
           (Array.map
              (fun task ->
                if idx < Array.length task.cumulative then
                  string_of_int task.cumulative.(idx)
                else "-")
              t.tasks))
  done

let convergence_spread t =
  let finals = Array.map (fun task -> float_of_int task.final_trials) t.tasks in
  let mx = Array.fold_left max finals.(0) finals in
  let mn = Array.fold_left min finals.(0) finals in
  if mx = 0. then nan else (mx -. mn) /. mx

let to_csv t =
  let n =
    Array.fold_left (fun acc task -> max acc (Array.length task.cumulative)) 0 t.tasks
  in
  let header =
    "time_s" :: Array.to_list (Array.map (fun task -> task.name) t.tasks)
  in
  let rows =
    List.init n (fun i ->
        string_of_int ((i + 1) * t.window / Time.seconds 1)
        :: Array.to_list
             (Array.map
                (fun task ->
                  if i < Array.length task.cumulative then
                    string_of_int task.cumulative.(i)
                  else "")
                t.tasks))
  in
  Common.csv ~header rows
