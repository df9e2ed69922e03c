open Lotto_sim
module Spinner = Lotto_workloads.Spinner

type viewer_result = {
  name : string;
  cumulative : int array;
  fps_before : float;
  fps_after : float;
}

type t = {
  viewers : viewer_result array;
  switch_at : Time.t;
  ratios_before : float * float;
  ratios_after : float * float;
}

(* a viewer decodes one frame per iteration, so its frame rate is
   proportional to its CPU share *)
let frame_cost = Time.ms 200

let fps v ~lo ~hi =
  float_of_int (Spinner.iterations_between v ~lo ~hi) /. Time.to_seconds (hi - lo)

let run ?(seed = 8) ?(duration = Time.seconds 300) () =
  let kernel, ls = Common.lottery_setup ~seed () in
  let base = Common.Ls.base_currency ls in
  let switch_at = duration / 2 in
  let spawn name = Spinner.spawn kernel ~name ~cost:frame_cost () in
  let a = spawn "A" and b = spawn "B" and c = spawn "C" in
  let ta = Common.Ls.fund_thread ls (Spinner.thread a) ~amount:300 ~from:base in
  let tb = Common.Ls.fund_thread ls (Spinner.thread b) ~amount:200 ~from:base in
  let tc = Common.Ls.fund_thread ls (Spinner.thread c) ~amount:100 ~from:base in
  ignore ta;
  ignore (Kernel.run kernel ~until:switch_at);
  (* dynamic reallocation: 3:2:1 becomes 3:1:2 *)
  Common.Ls.set_ticket_amount ls tb 100;
  Common.Ls.set_ticket_amount ls tc 200;
  ignore (Kernel.run kernel ~until:duration);
  let result name v =
    {
      name;
      cumulative = Spinner.cumulative v ~upto:duration;
      fps_before = fps v ~lo:0 ~hi:switch_at;
      fps_after = fps v ~lo:switch_at ~hi:duration;
    }
  in
  let ra = result "A" a and rb = result "B" b and rc = result "C" c in
  {
    viewers = [| ra; rb; rc |];
    switch_at;
    ratios_before =
      (Common.ratio ra.fps_before rc.fps_before, Common.ratio rb.fps_before rc.fps_before);
    ratios_after =
      (Common.ratio ra.fps_after rb.fps_after, Common.ratio rc.fps_after rb.fps_after);
  }

let print t =
  Common.print_header "Figure 8: three video viewers, 3:2:1 then 3:1:2";
  Common.print_row [ "viewer"; "fps before"; "fps after"; "total frames" ];
  Array.iter
    (fun v ->
      Common.print_row
        [
          v.name;
          Printf.sprintf "%5.2f" v.fps_before;
          Printf.sprintf "%5.2f" v.fps_after;
          string_of_int
            (if Array.length v.cumulative = 0 then 0
             else v.cumulative.(Array.length v.cumulative - 1));
        ])
    t.viewers;
  let ab, bc = t.ratios_before in
  Common.print_kv "before (A:C, B:C)" "%.2f, %.2f (ideal 3, 2)" ab bc;
  let ab', cb' = t.ratios_after in
  Common.print_kv "after (A:B, C:B)" "%.2f, %.2f (ideal 3, 2)" ab' cb'

let to_csv t =
  Common.csv ~header:[ "viewer"; "fps_before"; "fps_after"; "total_frames" ]
    (Array.to_list t.viewers
    |> List.map (fun v ->
           [
             v.name;
             Common.f v.fps_before;
             Common.f v.fps_after;
             string_of_int
               (if Array.length v.cumulative = 0 then 0
                else v.cumulative.(Array.length v.cumulative - 1));
           ]))
