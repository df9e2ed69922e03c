(* Tests for Lotto_chaos: deterministic fault injection, the combined
   invariant audit, and the soak driver. *)

open Core
module Plan = Chaos.Plan
module Injector = Chaos.Injector
module Scenarios = Chaos.Scenarios
module Soak = Chaos.Soak

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* --- plans ----------------------------------------------------------------- *)

let test_plan_validation () =
  Plan.validate Plan.default;
  Plan.validate Plan.none;
  Plan.validate Plan.aggressive;
  Alcotest.check_raises "probability out of range"
    (Invalid_argument "Plan: kill_prob = 1.5 not in [0,1]") (fun () ->
      Plan.validate { Plan.default with kill_prob = 1.5 });
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Plan: max_kills < 0") (fun () ->
      Plan.validate { Plan.default with max_kills = -1 })

(* --- determinism ----------------------------------------------------------- *)

let fault_log sc seed =
  let o = Soak.run_one sc ~seed in
  o.Soak.faults

let test_injector_deterministic () =
  List.iter
    (fun sc ->
      let a = fault_log sc 7 and b = fault_log sc 7 in
      checkb
        (Printf.sprintf "%s: same seed, same fault log" sc.Scenarios.name)
        true (a = b))
    Scenarios.all

let test_seeds_differ () =
  (* not a hard guarantee per-scenario, but across five scenarios two seeds
     must not produce five identical fault logs *)
  let logs seed = List.map (fun sc -> fault_log sc seed) Scenarios.all in
  checkb "seed changes the fault sequence" true (logs 1 <> logs 2)

let test_plan_none_injects_nothing () =
  List.iter
    (fun sc ->
      let o = Soak.run_one ~plan:Plan.none sc ~seed:5 in
      checkb
        (Printf.sprintf "%s: no faults under Plan.none" sc.Scenarios.name)
        true (o.Soak.faults = []);
      checkb
        (Printf.sprintf "%s: clean run" sc.Scenarios.name)
        false (Soak.failed o))
    Scenarios.all

let test_fault_events_published () =
  (* wire a kernel by hand so we can subscribe before the run *)
  let sc = Scenarios.mutex in
  let rng = Rng.create ~seed:11 () in
  let inj_rng = Rng.split rng in
  let ls = Lottery_sched.create ~rng () in
  let k = Kernel.create ~sched:(Lottery_sched.sched ls) () in
  let seen = ref 0 in
  ignore
    (Obs.Bus.subscribe ~name:"fault-probe" (Kernel.bus k) (fun _ ev ->
         match ev with Obs.Event.Fault_injected _ -> incr seen | _ -> ()));
  let inj =
    Injector.create ~plan:Plan.aggressive ~rng:inj_rng ~kernel:k ()
  in
  Kernel.set_pre_select k (Some (fun () -> Injector.step inj));
  sc.Scenarios.build
    {
      Scenarios.kernel = k;
      ls;
      rng;
      point = (fun () -> Injector.point inj);
      audit = ignore;
    };
  ignore (Kernel.run k ~until:sc.Scenarios.horizon);
  checkb "faults were injected" true (Injector.faults inj <> []);
  checki "every fault published on the bus" (List.length (Injector.faults inj))
    !seen

(* --- the soak -------------------------------------------------------------- *)

let test_soak_200_seeds_audited () =
  (* the acceptance soak: >= 200 audited runs across all scenarios *)
  let seeds = Soak.seed_range ~from:0 ~count:40 in
  let r = Soak.soak ~audit:true ~seeds () in
  checki "40 seeds x 7 scenarios" 280 r.Soak.runs;
  (match Soak.first_failure r with
  | None -> ()
  | Some (sc, seed) ->
      Alcotest.failf "soak failed: scenario=%s seed=%d\n%s" sc seed
        (Soak.report_to_string r));
  checkb "report prints clean" true
    (r.Soak.failures = [] && Soak.report_to_string r <> "")

let test_soak_catches_reintroduced_bug () =
  (* reintroduce the historical reply-after-kill bug and prove the soak
     REPORTS it (a failure with a repro pair), rather than crashing *)
  let seeds = Soak.seed_range ~from:0 ~count:30 in
  let r = Soak.soak ~scenarios:[ Scenarios.rpc_buggy ] ~seeds () in
  (match Soak.first_failure r with
  | Some (sc, seed) ->
      check Alcotest.string "repro names the buggy scenario" "rpc-buggy" sc;
      (* the reported pair must actually reproduce *)
      (match Scenarios.find sc with
      | None -> Alcotest.fail "reported scenario not found"
      | Some scen ->
          let o = Soak.run_one scen ~seed in
          checkb "repro pair reproduces the failure" true (Soak.failed o);
          checkb "failure names the server exception" true
            (List.exists
               (fun (_, e) ->
                 let is_sub sub s =
                   let n = String.length sub and m = String.length s in
                   let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
                   go 0
                 in
                 is_sub "not awaiting a reply" e)
               o.Soak.thread_failures))
  | None ->
      Alcotest.fail "soak missed the deliberately reintroduced bug");
  checkb "failing runs listed in the report" true
    (r.Soak.failures <> [] && Soak.report_to_string r <> "")

let test_span_audit_in_soak () =
  (* every chaos run now carries a span tracer: RPC-heavy scenarios must
     account for every request — closed, dropped or orphan-flagged, never
     leaked — even with kills flying *)
  let o = Soak.run_one Scenarios.rpc ~seed:3 in
  checkb "clean run" false (Soak.failed o);
  let st = o.Soak.span_stats in
  checkb "spans were traced" true (st.Lotto_obs.Span.st_total > 0);
  checki "no span left open after finalize" 0 st.st_open;
  checki "every span accounted for" st.st_total
    (st.st_closed + st.st_dropped + st.st_orphaned)

let test_span_soak_200_seeds () =
  (* the acceptance soak for span tracing: 200 seeds over the RPC and
     scatter scenarios, kills and all; any structural span violation is a
     run failure, and every opened span must be accounted for *)
  let seeds = Soak.seed_range ~from:0 ~count:200 in
  List.iter
    (fun sc ->
      let r = Soak.soak ~scenarios:[ sc ] ~seeds () in
      (match Soak.first_failure r with
      | None -> ()
      | Some (name, seed) ->
          Alcotest.failf "span soak failed: scenario=%s seed=%d\n%s" name seed
            (Soak.report_to_string r));
      checki
        (Printf.sprintf "%s: 200 runs" sc.Scenarios.name)
        200 r.Soak.runs)
    [ Scenarios.rpc; Scenarios.scatter ]

let test_service_scenario_soak () =
  (* the service stack under 200 seeds of kills: workers die mid-request,
     stubs mid-RPC, while the drop-oldest tenant sheds. The world's own
     books (every arrival served, shed, queued or held; client sheds equal
     port sheds) are audited at every boundary beside the kernel's, and
     every span must end closed, dropped or orphaned *)
  let seeds = Soak.seed_range ~from:0 ~count:200 in
  let r = Soak.soak ~audit:true ~scenarios:[ Scenarios.service ] ~seeds () in
  (match Soak.first_failure r with
  | None -> ()
  | Some (name, seed) ->
      Alcotest.failf "service soak failed: scenario=%s seed=%d\n%s" name seed
        (Soak.report_to_string r));
  checki "200 runs" 200 r.Soak.runs;
  let o = Soak.run_one Scenarios.service ~seed:11 in
  checkb "clean single run" false (Soak.failed o);
  let st = o.Soak.span_stats in
  checkb "spans traced" true (st.Lotto_obs.Span.st_total > 0);
  checki "no span leaked" st.st_total
    (st.st_closed + st.st_dropped + st.st_orphaned);
  (* with no faults, every dropped span is a shed one *)
  let calm = Soak.run_one ~plan:Plan.none Scenarios.service ~seed:11 in
  checkb "the world sheds" true (calm.Soak.span_stats.Lotto_obs.Span.st_dropped > 0)

(* An exception out of the kernel, here the scenario's own check raising
   in the pre-select hook, fails that run with a violation, and the sweep
   goes on to the next seed. *)
let test_kernel_exception_fails_the_run () =
  let raising =
    {
      Scenarios.name = "raising";
      horizon = Time.ms 100;
      build =
        (fun ctx ->
          let k = ctx.Scenarios.kernel in
          let th =
            Kernel.spawn k ~name:"sleeper" (fun () ->
                for _ = 1 to 50 do
                  Api.sleep (Time.ms 1)
                done)
          in
          ignore
            (Lottery_sched.fund_thread ctx.ls th ~amount:100
               ~from:(Lottery_sched.base_currency ctx.ls));
          ctx.audit (fun () ->
              if Kernel.now k >= Time.ms 5 then failwith "broken books" else []));
    }
  in
  let r = Soak.soak ~plan:Plan.none ~scenarios:[ raising ] ~seeds:[ 1; 2 ] () in
  checki "both seeds ran" 2 r.Soak.runs;
  checki "both failed" 2 (List.length r.Soak.failures);
  List.iter
    (fun o ->
      check
        Alcotest.(list string)
        "the exception is the violation"
        [ "kernel raised Failure(\"broken books\")" ]
        (List.map snd o.Soak.violations))
    r.Soak.failures

let test_soak_multi_cpu () =
  (* the sharded scheduler under fault injection, with the combined audit
     (kernel + funding + sharding) at every boundary *)
  let seeds = Soak.seed_range ~from:0 ~count:10 in
  List.iter
    (fun cpus ->
      let r = Soak.soak ~audit:true ~cpus ~seeds () in
      checki (Printf.sprintf "%d-cpu: 10 seeds x 7 scenarios" cpus) 70 r.Soak.runs;
      match Soak.first_failure r with
      | None -> ()
      | Some (sc, seed) ->
          Alcotest.failf "%d-cpu soak failed: scenario=%s seed=%d\n%s" cpus sc
            seed (Soak.report_to_string r))
    [ 2; 4 ]

let test_multi_cpu_outcome_reproducible () =
  let sc = Scenarios.scatter in
  let a = Soak.run_one ~cpus:4 sc ~seed:23 and b = Soak.run_one ~cpus:4 sc ~seed:23 in
  checkb "identical 4-cpu outcomes" true
    (a.Soak.faults = b.Soak.faults
    && a.Soak.violations = b.Soak.violations
    && a.Soak.thread_failures = b.Soak.thread_failures
    && a.Soak.summary = b.Soak.summary)

let test_outcome_reproducible_end_to_end () =
  (* full outcome equality, not just fault logs *)
  let sc = Scenarios.scatter in
  let a = Soak.run_one sc ~seed:23 and b = Soak.run_one sc ~seed:23 in
  checkb "identical outcomes" true
    (a.Soak.faults = b.Soak.faults
    && a.Soak.violations = b.Soak.violations
    && a.Soak.thread_failures = b.Soak.thread_failures
    && a.Soak.summary = b.Soak.summary)

let test_scenario_lookup () =
  checkb "rpc found" true (Scenarios.find "rpc" <> None);
  checkb "rpc-buggy found" true (Scenarios.find "rpc-buggy" <> None);
  checkb "unknown rejected" true (Scenarios.find "nope" = None);
  checkb "service found" true (Scenarios.find "service" <> None);
  checki "seven healthy scenarios" 7 (List.length Scenarios.all)

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [ Alcotest.test_case "validation" `Quick test_plan_validation ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same faults" `Quick
            test_injector_deterministic;
          Alcotest.test_case "different seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "Plan.none injects nothing" `Quick
            test_plan_none_injects_nothing;
          Alcotest.test_case "faults published on the bus" `Quick
            test_fault_events_published;
          Alcotest.test_case "outcome reproducible end to end" `Quick
            test_outcome_reproducible_end_to_end;
        ] );
      ( "soak",
        [
          Alcotest.test_case "200 audited seeded runs pass" `Slow
            test_soak_200_seeds_audited;
          Alcotest.test_case "span audit rides every run" `Quick
            test_span_audit_in_soak;
          Alcotest.test_case "200-seed span soak over rpc scenarios" `Slow
            test_span_soak_200_seeds;
          Alcotest.test_case "200-seed service scenario soak (shed + spans)"
            `Slow test_service_scenario_soak;
          Alcotest.test_case "catches a reintroduced reply-after-kill bug"
            `Quick test_soak_catches_reintroduced_bug;
          Alcotest.test_case "multi-cpu soak (2 and 4 cpus, sharding audit)"
            `Quick test_soak_multi_cpu;
          Alcotest.test_case "4-cpu outcome reproducible" `Quick
            test_multi_cpu_outcome_reproducible;
          Alcotest.test_case "scenario lookup" `Quick test_scenario_lookup;
          Alcotest.test_case "a kernel exception fails the run" `Quick
            test_kernel_exception_fails_the_run;
        ] );
    ]
