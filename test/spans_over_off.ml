(* The one host-time row of OBS_BUDGET.txt, obs-overhead/spans-over-off: the
   cost of an RPC-saturated kernel quantum with the span tracer attached
   over the same quantum with an idle bus, a ratio of two Bechamel OLS fits
   of host ns, so the host's speed cancels out of it. It is noisy (1.1–2.1
   across runs), so it stays out of [dune runtest]. Run it from the
   repository root: [dune exec test/spans_over_off.exe]; it exits 1 over
   budget. *)

open Bechamel

let () =
  let budget =
    match List.assoc_opt Fixtures.spans_row (Fixtures.read_budget "OBS_BUDGET.txt") with
    | Some b -> b
    | None -> failwith ("OBS_BUDGET.txt budgets no " ^ Fixtures.spans_row)
  in
  let ops =
    [
      ("off", Fixtures.rpc_quantum ignore);
      ("spans", Fixtures.rpc_quantum (Core.Obs.Span.attach (Core.Obs.Span.create ())));
    ]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let tests =
    Test.make_grouped ~name:"obs-overhead"
      (List.map (fun (name, op) -> Test.make ~name (Staged.stage op)) ops)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 1000) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let fits = Analyze.all ols clock (Benchmark.all cfg [ clock ] tests) in
  let ns name = Analyze.OLS.estimates (Hashtbl.find fits ("obs-overhead/" ^ name)) in
  let ratio =
    match (ns "off", ns "spans") with
    | Some [ off ], Some [ spans ] when off > 0. -> spans /. off
    | _ -> nan
  in
  Printf.printf "%s %.3f (budget %.3f)\n" Fixtures.spans_row ratio budget;
  if not (ratio <= budget) then exit 1
