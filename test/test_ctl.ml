(* The lotteryctl command engine: parsing, execution, persistence. *)

module Store = Lotto_ctl.Store
module F = Core.Funding

let check = Alcotest.check
let checkb = check Alcotest.bool
let checki = check Alcotest.int

let ok ?user store words =
  match Store.parse_command words with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok cmd -> (
      match Store.exec ?user store cmd with
      | Ok out -> out
      | Error m -> Alcotest.failf "exec %s failed: %s" (String.concat " " words) m)

let expect_error ?user store words =
  match Store.parse_command words with
  | Error m -> m
  | Ok cmd -> (
      match Store.exec ?user store cmd with
      | Ok out -> Alcotest.failf "expected failure, got %S" out
      | Error m -> m)

let build_basic () =
  let s = Store.create () in
  ignore (ok s [ "mkcur"; "alice" ]);
  ignore (ok s [ "mktkt"; "200"; "base" ]);
  ignore (ok s [ "fund"; "t1"; "alice" ]);
  ignore (ok s [ "mktkt"; "100"; "alice" ]);
  ignore (ok s [ "hold"; "t2" ]);
  s

(* tiny case-insensitive substring helper *)
module Astring_contains = struct
  let contains haystack needle =
    Core.Corpus.count_substring ~haystack ~needle > 0
end

let test_basic_workflow () =
  let s = build_basic () in
  F.check_invariants (Store.system s);
  let eval = ok s [ "eval" ] in
  checkb "eval mentions alice" true (Astring_contains.contains eval "alice");
  checkb "ticket value 200 shown" true (Astring_contains.contains eval "200.00");
  let lstkt = ok s [ "lstkt" ] in
  checkb "lstkt lists t1" true (Astring_contains.contains lstkt "t1");
  checkb "lstkt shows held state" true (Astring_contains.contains lstkt "held");
  let lscur = ok s [ "lscur" ] in
  checkb "lscur lists base" true (Astring_contains.contains lscur "base")

let test_roundtrip_persistence () =
  let s = build_basic () in
  let text = Store.save s in
  match Store.load text with
  | Error m -> Alcotest.failf "reload failed: %s" m
  | Ok s' ->
      F.check_invariants (Store.system s');
      check Alcotest.string "serialization is stable" text (Store.save s');
      (* values must survive the roundtrip *)
      check Alcotest.string "eval equal" (ok s [ "eval" ]) (ok s' [ "eval" ]);
      (* labels continue after the highest loaded one *)
      let out = ok s' [ "mktkt"; "10"; "base" ] in
      checkb "next label is t3" true (Astring_contains.contains out "t3")

let test_load_file_missing () =
  match Store.load_file "/nonexistent/funding.lot" with
  | Ok s -> checki "fresh store" 1 (List.length (F.currencies (Store.system s)))
  | Error m -> Alcotest.failf "expected fresh store, got error %s" m

let test_save_and_load_file () =
  let path = Filename.temp_file "lotto" ".lot" in
  let s = build_basic () in
  (match Store.save_file s path with
  | Ok () -> ()
  | Error m -> Alcotest.failf "save failed: %s" m);
  (match Store.load_file path with
  | Ok s' -> check Alcotest.string "same contents" (Store.save s) (Store.save s')
  | Error m -> Alcotest.failf "load failed: %s" m);
  Sys.remove path

let test_errors () =
  let s = build_basic () in
  checkb "duplicate currency" true
    (Astring_contains.contains (expect_error s [ "mkcur"; "alice" ]) "exists");
  checkb "unknown ticket" true
    (Astring_contains.contains (expect_error s [ "rmtkt"; "t99" ]) "no ticket");
  checkb "unknown currency" true
    (Astring_contains.contains (expect_error s [ "fund"; "t2"; "nope" ]) "no currency");
  checkb "unknown command" true
    (Astring_contains.contains (expect_error s [ "frobnicate" ]) "unknown command");
  checkb "bad int" true
    (Astring_contains.contains (expect_error s [ "mktkt"; "abc"; "base" ]) "integer");
  checkb "amount over the bound" true
    (Astring_contains.contains
       (expect_error s [ "mktkt"; string_of_int (Core.Funding.max_amount + 1); "base" ])
       "above the bound");
  (* cycle via CLI *)
  ignore (ok s [ "mkcur"; "b" ]);
  ignore (ok s [ "mktkt"; "10"; "alice" ]);
  ignore (ok s [ "fund"; "t3"; "b" ]);
  ignore (ok s [ "mktkt"; "10"; "b" ]);
  checkb "cycle reported" true
    (Astring_contains.contains (expect_error s [ "fund"; "t4"; "alice" ]) "cycle")

let test_rm_and_release () =
  let s = build_basic () in
  ignore (ok s [ "release"; "t2" ]);
  ignore (ok s [ "rmtkt"; "t2" ]);
  ignore (ok s [ "rmtkt"; "t1" ]);
  ignore (ok s [ "rmcur"; "alice" ]);
  F.check_invariants (Store.system s);
  checkb "alice gone" true (F.find_currency (Store.system s) "alice" = None);
  checkb "rmcur base refused" true
    (Astring_contains.contains (expect_error s [ "rmcur"; "base" ]) "base")

let test_draw_distribution () =
  let s = Store.create () in
  ignore (ok s [ "mktkt"; "300"; "base" ]);
  ignore (ok s [ "hold"; "t1" ]);
  ignore (ok s [ "mktkt"; "100"; "base" ]);
  ignore (ok s [ "hold"; "t2" ]);
  let out = ok s [ "draw"; "2000"; "7" ] in
  (* t1 should take roughly 75% of wins; parse its count *)
  checkb "draw output mentions both" true
    (Astring_contains.contains out "t1" && Astring_contains.contains out "t2");
  checkb "draw errors without held tickets" true
    (Astring_contains.contains
       (expect_error (Store.create ()) [ "draw"; "10" ])
       "no held")

let test_simulate () =
  let s = build_basic () in
  (* a second held ticket so the split is interesting: 200-alice vs 100-base *)
  ignore (ok s [ "mktkt"; "100"; "base" ]);
  ignore (ok s [ "hold"; "t3" ]);
  let out = ok s [ "simulate"; "30"; "5" ] in
  checkb "simulate reports both" true
    (Astring_contains.contains out "t2" && Astring_contains.contains out "t3");
  checkb "reports percentages" true (Astring_contains.contains out "%");
  checkb "simulate needs held tickets" true
    (Astring_contains.contains
       (expect_error (Store.create ()) [ "simulate"; "5" ])
       "no held")

let test_users_and_permissions () =
  let s = Store.create () in
  ignore (ok ~user:"alice" s [ "mkcur"; "wonderland" ]);
  (* strangers cannot inflate alice's currency *)
  checkb "mallory denied" true
    (Astring_contains.contains
       (expect_error ~user:"mallory" s [ "mktkt"; "999"; "wonderland" ])
       "denied");
  (* owner can, and can delegate *)
  ignore (ok ~user:"alice" s [ "mktkt"; "10"; "wonderland" ]);
  ignore (ok ~user:"alice" s [ "grant"; "wonderland"; "bob"; "issue" ]);
  ignore (ok ~user:"bob" s [ "mktkt"; "5"; "wonderland" ]);
  ignore (ok ~user:"alice" s [ "ungrant"; "wonderland"; "bob"; "issue" ]);
  checkb "revoked" true
    (Astring_contains.contains
       (expect_error ~user:"bob" s [ "mktkt"; "5"; "wonderland" ])
       "denied");
  (* ownership transfer *)
  ignore (ok ~user:"alice" s [ "chown"; "wonderland"; "carol" ]);
  checkb "alice lost manage" true
    (Astring_contains.contains
       (expect_error ~user:"alice" s [ "grant"; "wonderland"; "alice"; "issue" ])
       "denied");
  checkb "lscur shows owner" true
    (Astring_contains.contains (ok s [ "lscur" ]) "carol")

let test_acl_persistence () =
  let s = Store.create () in
  ignore (ok ~user:"alice" s [ "mkcur"; "wonderland" ]);
  ignore (ok ~user:"alice" s [ "grant"; "wonderland"; "bob"; "fund" ]);
  match Store.load (Store.save s) with
  | Error m -> Alcotest.failf "reload: %s" m
  | Ok s' ->
      checkb "owner persisted" true
        (Astring_contains.contains (ok s' [ "lscur" ]) "alice");
      (* bob's fund grant survives: issue a base ticket as root and let bob
         fund wonderland with it — bob also needs issue on base, so grant it *)
      ignore (ok s' [ "grant"; "base"; "bob"; "issue" ]);
      ignore (ok ~user:"bob" s' [ "mktkt"; "7"; "base" ]);
      ignore (ok ~user:"bob" s' [ "fund"; "t1"; "wonderland" ]);
      checkb "grant survived the roundtrip" true true

let test_dot_command () =
  let s = build_basic () in
  let out = ok s [ "dot" ] in
  checkb "dot output" true
    (Astring_contains.contains out "digraph"
    && Astring_contains.contains out "alice")

let test_hold_backing_rejected () =
  let s = build_basic () in
  (* t1 backs alice: holding it must fail *)
  checkb "hold on backing ticket" true
    (Astring_contains.contains (expect_error s [ "hold"; "t1" ]) "backing")

let test_draw_deterministic_by_seed () =
  let s = build_basic () in
  ignore (ok s [ "mktkt"; "100"; "base" ]);
  ignore (ok s [ "hold"; "t3" ]);
  check Alcotest.string "same seed, same wins" (ok s [ "draw"; "500"; "9" ])
    (ok s [ "draw"; "500"; "9" ]);
  checkb "different seeds differ" true
    (ok s [ "draw"; "500"; "9" ] <> ok s [ "draw"; "500"; "10" ])

let test_corrupt_state_rejected () =
  List.iter
    (fun text ->
      match Store.load text with
      | Ok _ -> Alcotest.failf "accepted corrupt state %S" text
      | Error _ -> ())
    [
      "garbage line";
      "ticket t1 10 nowhere unattached";
      "ticket t1 abc base unattached";
      "currency base";
      "ticket t1 10 base backs:missing";
    ]

(* --- scenarios ------------------------------------------------------------- *)

module Scenario = Lotto_ctl.Scenario

let demo_scenario =
  {|
# comment
seed 7
quantum 100ms
currency alice 1000 base
thread a1 spin 1ms 100 alice
thread a2 spin 1ms 200 alice
thread ivy interactive 10ms 90ms 100 base
run 20s
|}

let test_scenario_end_to_end () =
  match Scenario.parse demo_scenario with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok s ->
      let r = Scenario.run s in
      checki "horizon" (Lotto_sim.Time.seconds 20) r.Scenario.horizon;
      (match r.Scenario.rows with
      | [ ("a1", cpu1, _); ("a2", cpu2, _); ("ivy", cpu3, _) ] ->
          checkb "a1:a2 near 1:2" true
            (abs ((2 * cpu1) - cpu2) * 100 < 40 * cpu2);
          checkb "interactive thread uses least" true (cpu3 < cpu1)
      | _ -> Alcotest.fail "rows");
      checkb "timeline rendered" true
        (Astring_contains.contains r.Scenario.timeline "a1")

let test_scenario_parse_errors () =
  let expect_parse_error text needle =
    match Scenario.parse text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error m ->
        checkb
          (Printf.sprintf "%S mentions %S (got %S)" text needle m)
          true
          (Astring_contains.contains m needle)
  in
  expect_parse_error "thread a spin 1ms 100 base" "run";
  expect_parse_error "bogus directive
run 1s" "unparseable";
  expect_parse_error "quantum fast
run 1s" "bad quantum";
  expect_parse_error "seed x
run 1s" "bad seed";
  expect_parse_error "run 1s
thread a spin 1ms 1 base" "nothing may follow";
  expect_parse_error "thread a spin 1ms -5 base
run 1s" "bad funding";
  expect_parse_error "currency alice ten base
run 1s" "bad currency amount";
  (* amounts past Funding.max_amount are a parse error, not an exception
     from the funding layer mid-setup *)
  expect_parse_error "currency alice 4294967297 base
run 1s" "above the bound";
  expect_parse_error "thread a spin 1ms 4294967297 base
run 1s" "above the bound";
  expect_parse_error "run 0s" "bad run duration"

let rpc_scenario =
  "seed 7\n\
   currency alice 600 base\n\
   thread a1 spin 1ms 100 alice\n\
   thread srv serve echo 5ms 200 base\n\
   thread cli rpc echo 2ms 100 alice\n\
   run 5s"

let test_scenario_rpc_workloads () =
  (* serve/rpc threads: the run produces causal spans, a Prometheus
     snapshot and a phase profile when asked *)
  match Scenario.parse rpc_scenario with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok s ->
      let clock =
        let t = ref 0 in
        fun () ->
          t := !t + 50;
          !t
      in
      let r =
        Scenario.run ~trace:true ~stats:true ~spans:true ~prom:true
          ~profile_clock:clock s
      in
      checki "three rows" 3 (List.length r.Scenario.rows);
      (match r.Scenario.spans with
      | None -> Alcotest.fail "spans expected"
      | Some tracer ->
          let st = Lotto_obs.Span.stats tracer in
          checkb "rpc traffic produced spans" true (st.Lotto_obs.Span.st_total > 100);
          checki "all spans settled at the horizon" 0 st.st_open;
          check (Alcotest.list Alcotest.string) "no span violations" []
            (Lotto_obs.Span.violations tracer));
      (match r.Scenario.prom with
      | None -> Alcotest.fail "prom expected"
      | Some text ->
          checkb "rpc counters exported" true
            (Astring_contains.contains text "lotto_rpcs_sent_total"
            && Astring_contains.contains text "lotto_rpcs_served_total"));
      (match r.Scenario.profile with
      | None -> Alcotest.fail "profile expected"
      | Some text ->
          checkb "profile names the phases" true
            (Astring_contains.contains text "valuation"
            && Astring_contains.contains text "dispatch"));
      (match r.Scenario.stats with
      | None -> Alcotest.fail "stats expected"
      | Some text ->
          checkb "no wrap warning below capacity" false
            (Astring_contains.contains text "window wrapped"))

let test_scenario_wrap_warning () =
  (* a deliberately tiny trace ring: the stats text must warn that the
     window wrapped instead of letting the numbers look complete *)
  match Scenario.parse rpc_scenario with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok s ->
      let r = Scenario.run ~trace:true ~trace_capacity:64 ~stats:true s in
      (match r.Scenario.recorder with
      | None -> Alcotest.fail "recorder expected"
      | Some rec_ ->
          checkb "ring wrapped" true (Lotto_obs.Recorder.dropped rec_ > 0));
      match r.Scenario.stats with
      | None -> Alcotest.fail "stats expected"
      | Some text ->
          checkb "wrap warning present" true
            (Astring_contains.contains text "window wrapped")

let test_scenario_rpc_parse_errors () =
  let expect_parse_error text needle =
    match Scenario.parse text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error m ->
        checkb
          (Printf.sprintf "%S mentions %S (got %S)" text needle m)
          true
          (Astring_contains.contains m needle)
  in
  expect_parse_error "thread s serve echo 0ms 10 base\nrun 1s" "bad service cost";
  expect_parse_error "thread c rpc echo never 10 base\nrun 1s" "bad think time";
  expect_parse_error "thread c rpc echo 10 base\nrun 1s" "expected: thread"

let test_scenario_durations () =
  (* us/ms/s suffixes all parse *)
  match
    Scenario.parse
      "thread a spin 500us 10 base
thread b spin 2ms 10 base
run 1s"
  with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok s ->
      let r = Scenario.run s in
      checki "two rows" 2 (List.length r.Scenario.rows)

let () =
  Alcotest.run "ctl"
    [
      ( "store",
        [
          Alcotest.test_case "basic workflow" `Quick test_basic_workflow;
          Alcotest.test_case "save/load roundtrip" `Quick test_roundtrip_persistence;
          Alcotest.test_case "missing file is a fresh store" `Quick test_load_file_missing;
          Alcotest.test_case "file persistence" `Quick test_save_and_load_file;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "rm and release" `Quick test_rm_and_release;
          Alcotest.test_case "draw" `Quick test_draw_distribution;
          Alcotest.test_case "simulate (fundx analog)" `Quick test_simulate;
          Alcotest.test_case "users and permissions" `Quick test_users_and_permissions;
          Alcotest.test_case "acl persistence" `Quick test_acl_persistence;
          Alcotest.test_case "dot export" `Quick test_dot_command;
          Alcotest.test_case "hold on backing rejected" `Quick test_hold_backing_rejected;
          Alcotest.test_case "draw determinism" `Quick test_draw_deterministic_by_seed;
          Alcotest.test_case "corrupt state rejected" `Quick test_corrupt_state_rejected;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "end to end" `Quick test_scenario_end_to_end;
          Alcotest.test_case "parse errors" `Quick test_scenario_parse_errors;
          Alcotest.test_case "duration suffixes" `Quick test_scenario_durations;
          Alcotest.test_case "rpc workloads, spans, prom, profile" `Quick
            test_scenario_rpc_workloads;
          Alcotest.test_case "wrapped-window warning" `Quick
            test_scenario_wrap_warning;
          Alcotest.test_case "rpc parse errors" `Quick
            test_scenario_rpc_parse_errors;
        ] );
    ]
