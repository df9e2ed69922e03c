(* Multi-tenant service layer: arrival generators, bounded-port admission
   control (reject-new / drop-oldest / scatter exemption), request
   accounting, and the insulation invariant end to end. *)

open Core
module Svc = Service.Harness
module Tenant = Service.Tenant
module Arrivals = Service.Arrivals
module Slo = Service.Slo

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let rr_kernel ?quantum () =
  Kernel.create ?quantum ~sched:(Round_robin.sched (Round_robin.create ())) ()

(* --- arrival generators -------------------------------------------------------- *)

let gaps profile ~seed ~n =
  let g = Arrivals.create ~rng:(Rng.create ~seed ()) profile in
  List.init n (fun _ -> Arrivals.next_gap_us g)

let test_arrivals_deterministic () =
  let p =
    Arrivals.Mmpp
      { calm_per_s = 50.; burst_per_s = 500.; calm_ms = 40.; burst_ms = 10. }
  in
  check (Alcotest.list Alcotest.int) "same seed, same schedule"
    (gaps p ~seed:5 ~n:1000) (gaps p ~seed:5 ~n:1000);
  checkb "different seed, different schedule" true
    (gaps p ~seed:5 ~n:1000 <> gaps p ~seed:6 ~n:1000)

(* the generator draws its deviates through [Rng.exponential_at]; they
   must stay the draws [Rng.exponential] makes from the same stream *)
let test_poisson_is_rng_exponential () =
  let rng = Rng.create ~seed:9 () in
  let expected =
    List.init 1000 (fun _ ->
        max 1 (int_of_float (Rng.exponential rng ~mean:(1e6 /. 250.))))
  in
  check (Alcotest.list Alcotest.int) "Poisson gaps are Rng.exponential draws"
    expected
    (gaps (Arrivals.Poisson 250.) ~seed:9 ~n:1000)

let test_poisson_mean () =
  let n = 50_000 in
  let total =
    List.fold_left ( + ) 0 (gaps (Arrivals.Poisson 250.) ~seed:7 ~n)
  in
  let mean = float_of_int total /. float_of_int n in
  checkb "empirical mean within 3% of 4000us" true
    (Float.abs (mean -. 4000.) < 120.)

let test_mmpp_mean_rate () =
  let p =
    Arrivals.Mmpp
      { calm_per_s = 100.; burst_per_s = 900.; calm_ms = 30.; burst_ms = 10. }
  in
  (* time-weighted: (100*30 + 900*10) / 40 = 300 req/s *)
  check (Alcotest.float 1e-9) "analytic mean rate" 300.
    (Arrivals.mean_rate_per_s p);
  let n = 100_000 in
  let total = List.fold_left ( + ) 0 (gaps p ~seed:8 ~n) in
  let rate = float_of_int n /. (float_of_int total /. 1e6) in
  checkb "empirical rate within 5% of analytic" true
    (Float.abs (rate -. 300.) < 15.)

let test_arrivals_validation () =
  let rng () = Rng.create ~seed:1 () in
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Arrivals: Poisson rate must be > 0") (fun () ->
      ignore (Arrivals.create ~rng:(rng ()) (Arrivals.Poisson 0.)));
  Alcotest.check_raises "negative sojourn"
    (Invalid_argument "Arrivals: Mmpp parameters must be > 0") (fun () ->
      ignore
        (Arrivals.create ~rng:(rng ())
           (Arrivals.Mmpp
              { calm_per_s = 1.; burst_per_s = 1.; calm_ms = -1.; burst_ms = 1. })))

(* --- bounded ports ------------------------------------------------------------- *)

(* [n] clients each sending one rpc to [port], no server: every request
   queues or sheds. Returns (rejected names in order, still-blocked count). *)
let send_n k port n =
  let rejected = ref [] in
  let blocked = ref 0 in
  for i = 1 to n do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "c%d" i) (fun () ->
           incr blocked;
           match Api.rpc port "x" with
           | (_ : string) -> decr blocked
           | exception Types.Rejected _ ->
               decr blocked;
               rejected := Printf.sprintf "c%d" i :: !rejected))
  done;
  (rejected, blocked)

let test_reject_new () =
  let k = rr_kernel () in
  let port = Kernel.create_port ~capacity:2 k ~name:"svc" in
  let tracer = Obs.Span.create () in
  Obs.Span.attach tracer (Kernel.bus k);
  let rejected, blocked = send_n k port 4 in
  ignore (Kernel.run k ~until:(Time.seconds 1));
  check (Alcotest.list Alcotest.string) "newest two rejected immediately"
    [ "c3"; "c4" ] (List.rev !rejected);
  checki "first two still queued" 2 !blocked;
  checki "kernel counted both sheds" 2 (Kernel.port_shed_count port);
  checkb "queue full again -> next would shed" true (Kernel.port_would_shed port);
  let st = Obs.Span.stats tracer in
  checki "shed requests traced as dropped spans" 2 st.Obs.Span.st_dropped

let test_drop_oldest () =
  let k = rr_kernel () in
  let port =
    Kernel.create_port ~capacity:2 ~shed:Types.Drop_oldest k ~name:"svc"
  in
  let rejected, blocked = send_n k port 4 in
  ignore (Kernel.run k ~until:(Time.seconds 1));
  (* c3 evicts c1, c4 evicts c2: the oldest queued senders are unwound
     kill-style; the two newest requests hold the queue *)
  check (Alcotest.list Alcotest.string) "oldest two evicted, in order"
    [ "c1"; "c2" ] (List.rev !rejected);
  checki "newest two queued" 2 !blocked;
  checki "kernel counted both sheds" 2 (Kernel.port_shed_count port)

let test_drop_oldest_no_victim () =
  let k = rr_kernel () in
  let port =
    Kernel.create_port ~capacity:1 ~shed:Types.Drop_oldest k ~name:"svc"
  in
  let scatter_rejected = ref false and plain_rejected = ref false in
  ignore
    (Kernel.spawn k ~name:"scatter" (fun () ->
         try ignore (Api.rpc_many [ (port, "s") ])
         with Types.Rejected _ -> scatter_rejected := true));
  ignore
    (Kernel.spawn k ~name:"plain" (fun () ->
         try ignore (Api.rpc port "x")
         with Types.Rejected _ -> plain_rejected := true));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  (* the queue is full of a scatter slice, which is exempt from eviction:
     drop-oldest degrades to rejecting the newcomer *)
  checkb "scatter request never shed" false !scatter_rejected;
  checkb "plain request rejected for lack of victim" true !plain_rejected;
  checki "shed counted" 1 (Kernel.port_shed_count port)

(* The arrival side of the scatter exemption: on a full reject-new port a
   scatter slice still queues past capacity, while a plain rpc arriving
   after it is rejected, and only the plain one counts as shed. *)
let test_scatter_bypasses_admission () =
  let k = rr_kernel () in
  let port = Kernel.create_port ~capacity:1 k ~name:"svc" in
  let rejected = ref [] and scatter_done = ref false in
  let client name f =
    ignore
      (Kernel.spawn k ~name (fun () ->
           try f () with Types.Rejected _ -> rejected := name :: !rejected))
  in
  client "fill" (fun () -> ignore (Api.rpc port "x"));
  client "scatter" (fun () ->
      ignore (Api.rpc_many [ (port, "s") ]);
      scatter_done := true);
  client "plain" (fun () -> ignore (Api.rpc port "y"));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checki "scatter slice queued past capacity" 2 (Queue.length port.Types.queue);
  check (Alcotest.list Alcotest.string) "only the plain rpc rejected" [ "plain" ]
    !rejected;
  checki "shed count counts only the plain rpc" 1 (Kernel.port_shed_count port);
  (* a server drains the queue: the admitted scatter slice is answered *)
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         while true do
           Api.reply (Api.receive port) "ok"
         done));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  checkb "scatter call completed" true !scatter_done

let test_unbounded_port_never_sheds () =
  let k = rr_kernel () in
  let port = Kernel.create_port k ~name:"svc" in
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         while true do
           let m = Api.receive port in
           Api.compute (Time.ms 1);
           Api.reply m "ok"
         done));
  let rejected, _ = send_n k port 100 in
  ignore (Kernel.run k ~until:(Time.seconds 2));
  checki "nothing rejected" 0 (List.length !rejected);
  checki "nothing shed" 0 (Kernel.port_shed_count port);
  checkb "never sheds" false (Kernel.port_would_shed port)

let test_port_capacity_validation () =
  let k = rr_kernel () in
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Kernel.create_port: capacity must be >= 1") (fun () ->
      ignore (Kernel.create_port ~capacity:0 k ~name:"bad"))

(* --- service harness ----------------------------------------------------------- *)

let test_accounting_under_overload () =
  (* one tenant at 2x machine capacity: roughly half the arrivals shed,
     and every single one is accounted for *)
  let spec = Tenant.spec ~arrivals:(Arrivals.Poisson 400.) "A" in
  let report = Svc.run (Svc.config ~horizon:(Time.seconds 10) [ spec ]) in
  let tr = Svc.find report "A" in
  checkb "conservation law" true report.Svc.accounted;
  checkb "client sheds equal kernel sheds" true report.Svc.shed_consistent;
  checki "arrivals = served + shed + in_flight" tr.Svc.arrivals
    (tr.Svc.served + tr.Svc.shed + tr.Svc.in_flight);
  checkb "substantial shedding at 2x load" true (tr.Svc.shed > tr.Svc.arrivals / 4);
  checkb "goodput near machine capacity" true
    (Float.abs (tr.Svc.goodput_per_s -. 200.) < 20.)

(* The request path on 2 and 4 virtual CPUs (one lottery shard each): RPC,
   shedding and the workers run concurrently in virtual time, and every
   request must still be accounted for. B floods a drop-oldest port at
   several times the machine's capacity while A keeps the default
   reject-new port, so both shed policies fire. *)
let test_accounting_multi_cpu cpus () =
  let a = Tenant.spec ~share:900 ~arrivals:(Arrivals.Poisson 300.) "A" in
  let b =
    Tenant.spec ~share:100 ~shed:Types.Drop_oldest
      ~arrivals:(Arrivals.Poisson 2000.) "B"
  in
  let report = Svc.run ~cpus (Svc.config ~horizon:(Time.seconds 5) [ a; b ]) in
  checkb "arrivals = served + shed + backlog + holding" true report.Svc.accounted;
  checkb "pool sheds equal SLO sheds" true report.Svc.shed_consistent;
  List.iter
    (fun (tr : Svc.tenant_report) ->
      checki (tr.Svc.t_name ^ ": arrivals = served + shed + in flight")
        tr.Svc.arrivals
        (tr.Svc.served + tr.Svc.shed + tr.Svc.in_flight);
      checki (tr.Svc.t_name ^ ": pool shed count = SLO shed count")
        tr.Svc.kernel_shed tr.Svc.shed;
      checkb (tr.Svc.t_name ^ ": served some") true (tr.Svc.served > 0))
    report.Svc.tenants;
  checkb "the flood sheds" true ((Svc.find report "B").Svc.shed > 0)

(* A worker killed mid-request never replies, so its request stays held
   by the stub that sent it, which waits in [Waiting_reply] to the
   horizon: the books still balance with the request in flight. The stub's
   transfer went with the worker. *)
let test_killed_worker_request_stays_held () =
  let spec =
    Tenant.spec ~arrivals:(Arrivals.Poisson 50.) ~workers:1 ~stubs:2 "A"
  in
  let cfg = Svc.config ~horizon:(Time.seconds 1) [ spec ] in
  let rng = Rng.create ~seed:cfg.seed () in
  let ls = Lottery_sched.create ~rng () in
  let k = Kernel.create ~quantum:cfg.quantum ~sched:(Lottery_sched.sched ls) () in
  let w = Svc.build ~ls ~rng k cfg in
  let named name = List.find (fun th -> Kernel.thread_name th = name) (Kernel.threads k) in
  let worker = named "A.w0" and stubs = [ named "A.c0"; named "A.c1" ] in
  let t = ref 0 in
  while worker.Types.servicing = [] do
    t := !t + Time.ms 1;
    ignore (Kernel.run k ~until:!t)
  done;
  let served = (Slo.tenant (Svc.slo w) "A").Slo.served in
  Kernel.kill k worker;
  let report = Svc.capture w (Kernel.run k ~until:cfg.horizon) in
  let tr = Svc.find report "A" in
  checkb "accounted" true report.Svc.accounted;
  checkb "shed consistent" true report.Svc.shed_consistent;
  check Alcotest.(list string) "the world's check is clean" [] (Svc.check w);
  checki "nothing served after the kill" served tr.Svc.served;
  checkb "the held request is in flight" true (tr.Svc.in_flight >= 1);
  checkb "its stub still waits for the reply" true
    (List.exists
       (fun th ->
         Kernel.thread_state th = Types.Blocked
         && match th.Types.pending with Types.Waiting_reply -> true | _ -> false)
       stubs);
  check Alcotest.(list string) "no transfer outlives the worker" []
    (Lottery_sched.check_funding_coherence ls (Kernel.threads k))

(* [build] funds through a lottery exactly when the config says Lottery. *)
let test_build_checks_sched_kind () =
  let spec = Tenant.spec ~arrivals:(Arrivals.Poisson 50.) "A" in
  let rng = Rng.create ~seed:1 () in
  let ls = Lottery_sched.create ~rng () in
  let k = Kernel.create ~sched:(Lottery_sched.sched ls) () in
  let msg = "Service.build: a lottery exactly when sched_kind is Lottery" in
  Alcotest.check_raises "lottery config, no lottery" (Invalid_argument msg) (fun () ->
      ignore (Svc.build ~rng k (Svc.config [ spec ])));
  Alcotest.check_raises "decay config, a lottery" (Invalid_argument msg) (fun () ->
      ignore (Svc.build ~ls ~rng k (Svc.config ~sched_kind:Svc.Decay_usage [ spec ])))

let test_prom_exposition () =
  let spec = Tenant.spec ~arrivals:(Arrivals.Poisson 100.) "web" in
  let report = Svc.run (Svc.config ~horizon:(Time.seconds 5) [ spec ]) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let has s = contains report.Svc.prom s in
  List.iter
    (fun family -> checkb family true (has family))
    [
      "lotto_slo_requests_total{tenant=\"web\"}";
      "lotto_slo_served_total{tenant=\"web\"}";
      "lotto_slo_shed_total{tenant=\"web\"}";
      "lotto_slo_latency_us{tenant=\"web\",quantile=\"0.99\"}";
      "lotto_slo_latency_us_count{tenant=\"web\"}";
    ]

(* A Prometheus reader takes any fall of a counter for a reset, so every
   counter family is a running total named [_total]. The in-flight count
   falls whenever a request resolves, so it is a gauge. Checked on both
   exporters: the kernel registry and the service's SLO books. *)
let test_prom_family_types () =
  let spec = Tenant.spec ~arrivals:(Arrivals.Poisson 100.) "web" in
  let report = Svc.run (Svc.config ~horizon:(Time.seconds 1) [ spec ]) in
  let k = rr_kernel () in
  let m = Obs.Metrics.create () in
  Obs.Metrics.attach m (Kernel.bus k);
  ignore
    (Kernel.spawn k ~name:"w" (fun () ->
         while true do
           Api.compute (Time.ms 10);
           Api.sleep (Time.ms 30)
         done));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  let types text =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] -> Some (name, kind)
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  let families = types (Obs.Metrics.to_prom m) @ types report.Svc.prom in
  checkb "both exporters declare families" true (List.length families > 10);
  List.iter
    (fun (name, kind) ->
      if kind = "counter" then
        checkb (name ^ " is a counter named _total") true
          (String.ends_with ~suffix:"_total" name))
    families;
  check
    Alcotest.(option string)
    "lotto_slo_in_flight type" (Some "gauge")
    (List.assoc_opt "lotto_slo_in_flight" families)

let test_insulation_invariant () =
  (* the PR's acceptance gate at test scale: tenant B at 10x its
     entitlement must not move tenant A's p99 by more than 1.5x, CPU
     shares must pass chi-square against the 9:1 split, and every
     rejected request must be accounted for *)
  let t = Lotto_exp.Service_insulation.run ~horizon:(Time.seconds 20) () in
  checkb "p99 ratio within 1.5x" true (t.Lotto_exp.Service_insulation.p99_ratio <= 1.5);
  (match t.Lotto_exp.Service_insulation.loaded.Svc.chi_square_p with
  | Some p -> checkb "chi-square p >= 0.01" true (p >= 0.01)
  | None -> Alcotest.fail "chi-square expected");
  checkb "every request accounted" true
    (t.Lotto_exp.Service_insulation.loaded.Svc.accounted
    && t.Lotto_exp.Service_insulation.loaded.Svc.shed_consistent);
  checkb "SLO invariant passes" true t.Lotto_exp.Service_insulation.pass

let test_decay_breaks_shares () =
  (* same workload on decay-usage: B's saturated workers pull even with
     A's and the chi-square against 9:1 rejects — the SRM contrast *)
  let t = Lotto_exp.Service_vs_decay.run ~horizon:(Time.seconds 20) () in
  let arm name =
    List.find
      (fun a -> a.Lotto_exp.Service_vs_decay.sched = name)
      t.Lotto_exp.Service_vs_decay.arms
  in
  let lot = (arm "lottery").Lotto_exp.Service_vs_decay.report in
  let dec = (arm "decay-usage").Lotto_exp.Service_vs_decay.report in
  let ratio (r : Svc.report) =
    let a = Svc.find r "A" and b = Svc.find r "B" in
    float_of_int a.Svc.worker_quanta /. float_of_int (max 1 b.Svc.worker_quanta)
  in
  checkb "lottery holds ~9:1 cpu" true (Float.abs (ratio lot -. 9.) < 1.5);
  checkb "decay collapses toward 1:1" true (ratio dec < 2.);
  (match dec.Svc.chi_square_p with
  | Some p -> checkb "decay rejects the 9:1 split" true (p < 0.01)
  | None -> Alcotest.fail "chi-square expected");
  checkb "accounting also holds under decay" true
    (dec.Svc.accounted && dec.Svc.shed_consistent)

let () =
  Alcotest.run "service"
    [
      ( "arrivals",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_arrivals_deterministic;
          Alcotest.test_case "poisson gaps are Rng.exponential draws" `Quick
            test_poisson_is_rng_exponential;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          Alcotest.test_case "mmpp mean rate" `Quick test_mmpp_mean_rate;
          Alcotest.test_case "validation" `Quick test_arrivals_validation;
        ] );
      ( "bounded-ports",
        [
          Alcotest.test_case "reject-new sheds newest" `Quick test_reject_new;
          Alcotest.test_case "drop-oldest evicts oldest" `Quick test_drop_oldest;
          Alcotest.test_case "scatter slices are not victims" `Quick
            test_drop_oldest_no_victim;
          Alcotest.test_case "scatter slices bypass admission" `Quick
            test_scatter_bypasses_admission;
          Alcotest.test_case "unbounded port never sheds" `Quick
            test_unbounded_port_never_sheds;
          Alcotest.test_case "capacity validation" `Quick
            test_port_capacity_validation;
        ] );
      ( "harness",
        [
          Alcotest.test_case "accounting under overload" `Quick
            test_accounting_under_overload;
          Alcotest.test_case "accounting at 2 cpus" `Quick
            (test_accounting_multi_cpu 2);
          Alcotest.test_case "accounting at 4 cpus" `Quick
            (test_accounting_multi_cpu 4);
          Alcotest.test_case "prometheus exposition" `Quick test_prom_exposition;
          Alcotest.test_case "prometheus counters are totals" `Quick
            test_prom_family_types;
          Alcotest.test_case "insulation invariant" `Slow
            test_insulation_invariant;
          Alcotest.test_case "decay-usage breaks shares" `Slow
            test_decay_breaks_shares;
          Alcotest.test_case "killed worker's request stays held" `Quick
            test_killed_worker_request_stays_held;
          Alcotest.test_case "build checks the scheduler kind" `Quick
            test_build_checks_sched_kind;
        ] );
    ]
