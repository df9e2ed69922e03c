(* The overhead gate and the scale smoke.

   [rows] computes every row OBS_BUDGET.txt budgets, plus the few
   companions a reader of the gate needs; [--gate FILE] checks them against
   the budgets. Every [:minor-words] row is an exact [Gc.minor_words] count
   (see [exact_words]). The one timed row, obs-overhead/spans-over-off, is a
   ratio of two Bechamel fits over the same RPC quantum, so the host's speed
   cancels out of it.

   Host-time cost is measured by perfbench/ (see BENCHMARK.json), and every
   paper figure is an entry of bin/experiments.exe. *)

module Ls = Core.Lottery_sched

let sprintf = Printf.sprintf
let ms = Core.Time.ms

(* --- fixtures ------------------------------------------------------------ *)

let lottery ?(mode = Ls.Tree_mode) ?shards seed =
  Ls.create ~mode ?shards ~rng:(Core.Rng.create ~seed ()) ()

let fund ls ?(from = Ls.base_currency ls) th amount =
  ignore (Ls.fund_thread ls th ~amount ~from)

(* a thread that computes [q] at a time, forever *)
let spinner k name q =
  Core.Kernel.spawn k ~name (fun () ->
      while true do
        Core.Api.compute q
      done)

let run_for k d = ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + d))

(* Exact minor words per operation: [Gc.minor_words] around [ops] runs of
   [op] after [warm] unmeasured ones. Not a Bechamel fit: Bechamel's
   [minor_allocated] reads [Gc.quick_stat], whose minor word count only
   advances at a minor collection under OCaml 5, so an operation that
   allocates far less than a minor heap per sample fits to zero whatever
   it allocates. *)
let exact_words ?(warm = 200) ?(ops = 2000) op =
  for _ = 1 to warm do
    op ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to ops do
    op ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int ops

(* Host ns per call of each named operation: an OLS fit over Bechamel's
   monotonic clock. *)
let fit_ns group ops =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  let tests =
    Test.make_grouped ~name:group
      (List.map (fun (name, op) -> Test.make ~name (Staged.stage op)) ops)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 1000) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let fits = Analyze.all ols clock (Benchmark.all cfg [ clock ] tests) in
  List.map
    (fun (name, _) ->
      match Analyze.OLS.estimates (Hashtbl.find fits (group ^ "/" ^ name)) with
      | Some [ ns ] -> ns
      | _ -> nan)
    ops

(* --- obs-overhead: the span tracer's tax, the histogram hot path ---------- *)

(* The RPC-heavy kernel quantum the span tracer taxes most: four
   client/server pairs ping-ponging continuously with 1 ms of service per
   request, so one quantum carries dozens of RPC round trips. [attach]
   subscribes to the bus, or leaves it idle (event construction then
   compiles to one branch). *)
let rpc_quantum attach =
  let ls = lottery ~mode:Ls.List_mode 3 in
  let k = Core.Kernel.create ~sched:(Ls.sched ls) () in
  for i = 1 to 4 do
    let port = Core.Kernel.create_port k ~name:(sprintf "p%d" i) in
    fund ls
      (Core.Kernel.spawn k ~name:(sprintf "srv%d" i) (fun () ->
           while true do
             let m = Core.Api.receive port in
             Core.Api.compute (ms 1);
             Core.Api.reply m m.Core.Types.payload
           done))
      100;
    fund ls
      (Core.Kernel.spawn k ~name:(sprintf "cli%d" i) (fun () ->
           while true do
             ignore (Core.Api.rpc port "x")
           done))
      100
  done;
  attach (Core.Kernel.bus k);
  fun () -> run_for k (ms 100)

let hdr_record_op () =
  let h = Core.Obs.Hdr.create () in
  let i = ref 0 in
  fun () ->
    i := (!i + 7919) land 0xFFFFF;
    Core.Obs.Hdr.record h !i

(* One event per operation from a recorded stream (100 ms of the RPC
   quantum above: selects, preempts, blocks, wakes, compensations,
   donations and RPC events), fed to a [Metrics] registry that has already
   seen the whole stream once, so every row exists: the per-event cost a
   subscribed registry adds to every emission. *)
let metrics_event_op () =
  let recorded = ref [] in
  let run =
    rpc_quantum (fun bus ->
        ignore
          (Core.Obs.Bus.subscribe bus (fun time ev ->
               recorded := (time, ev) :: !recorded)))
  in
  run ();
  let stream = Array.of_list (List.rev !recorded) in
  let m = Core.Obs.Metrics.create () in
  Array.iter (fun (time, ev) -> Core.Obs.Metrics.on_event m time ev) stream;
  let i = ref 0 in
  fun () ->
    let time, ev = stream.(!i) in
    Core.Obs.Metrics.on_event m time ev;
    i := (!i + 1) mod Array.length stream

let obs_rows () =
  let spans_over_off =
    match
      fit_ns "obs-overhead"
        [
          ("off", rpc_quantum ignore);
          ("spans", rpc_quantum (Core.Obs.Span.attach (Core.Obs.Span.create ())));
        ]
    with
    | [ off; spans ] when off > 0. -> spans /. off
    | _ -> nan
  in
  [
    ("obs-overhead/hdr:minor-words", exact_words ~ops:100_000 (hdr_record_op ()));
    ("obs-overhead/spans-over-off", spans_over_off);
    ( "obs-overhead/metrics-event:minor-words",
      exact_words ~ops:100_000 (metrics_event_op ()) );
  ]

(* --- prng: the draws every layer above makes ------------------------------ *)

(* One [Rng.int_below] on the default Park–Miller generator, cycling through
   single-draw sizes and one past 2^31 - 2, which composes two raw draws. *)
let int_below_op () =
  let rng = Core.Rng.create ~seed:3 () in
  let sizes = [| 2; 7; 1000; 1 lsl 20; 1 lsl 40 |] in
  let i = ref 0 in
  fun () ->
    ignore (Core.Rng.int_below rng sizes.(!i));
    i := (!i + 1) mod Array.length sizes

let prng_rows () =
  [ ("prng/int-below:minor-words", exact_words ~ops:100_000 (int_below_op ())) ]

(* --- hotpath: the scheduling decision and the kernel's dispatch ---------- *)

(* The steady-state scheduling decision, made through the scheduler record
   as the kernel makes it: one [select] among 8 compute-bound threads and
   the winner's [account] for a full quantum. What the kernel does between
   the two calls is hotpath/effect-compute's. *)
let decision_op mode () =
  let ls = lottery ~mode 2 in
  let sched = Ls.sched ls in
  let k = Core.Kernel.create ~sched () in
  for i = 1 to 8 do
    fund ls (spinner k (sprintf "t%d" i) (ms 100)) (100 * i)
  done;
  (* one warm quantum: arena growth, pending-funding flush and thread
     startup happen outside the measured steady state *)
  run_for k (ms 100);
  let q = Core.Kernel.quantum k in
  fun () ->
    match sched.select ~cpu:0 with
    | Some w -> sched.account w ~used:q ~quantum:q ~blocked:false
    | None -> ()

(* the same decision on a 4-shard scheduler behind a 4-CPU kernel: one
   operation is a round of four selects (rebalance check, shard-local
   draw, dequeue), then the four winners' accounts, which re-enqueue them *)
let decision_sharded_op () =
  let ls = lottery ~shards:4 2 in
  let sr = Ls.sched ls in
  let k = Core.Kernel.create ~cpus:4 ~sched:sr () in
  for i = 1 to 8 do
    fund ls (spinner k (sprintf "t%d" i) (ms 100)) (100 * i)
  done;
  run_for k (ms 100);
  let q = Core.Kernel.quantum k in
  let sel = Array.make 4 None in
  fun () ->
    for cpu = 0 to 3 do
      sel.(cpu) <- sr.select ~cpu
    done;
    for cpu = 0 to 3 do
      match sel.(cpu) with
      | Some w -> sr.account w ~used:q ~quantum:q ~blocked:false
      | None -> ()
    done

(* The funding mutation path (paper §4.4): 64 threads funded from one
   currency on a 4-shard scheduler. One operation is a block and a wake of
   the same thread, which moves the currency's active amount both ways and
   so dirties all 64 siblings; a select on CPU 0, which re-weighs the 63
   runnable ones and draws; and the winner's account, as at a slice end. *)
let fund_reweigh_op () =
  let ls = lottery ~shards:4 5 in
  let sr = Ls.sched ls in
  let k = Core.Kernel.create ~cpus:4 ~sched:sr () in
  let cur = Ls.make_currency ls "family" in
  ignore (Ls.fund_currency ls ~target:cur ~amount:1000 ~from:(Ls.base_currency ls));
  let threads =
    Array.init 64 (fun i ->
        let th = spinner k (sprintf "t%d" i) (ms 100) in
        fund ls ~from:cur th (10 + i);
        th)
  in
  run_for k (ms 100);
  let th = threads.(0) in
  fun () ->
    sr.unready th;
    sr.ready th;
    match sr.select ~cpu:0 with
    | Some w -> sr.account w ~used:1 ~quantum:1 ~blocked:false
    | None -> ()

(* Invalidation's reach (paper §4.4): a tenant currency funds 4 compute-bound
   workers and 1,000 stubs blocked on a semaphore nobody posts, so the
   stubs' tickets are inactive. One operation is a block and a wake of one
   worker, each followed by a select and the winner's account, so the
   tenant is valid again before the next invalidation. The row counts the
   ticket edges the invalidation walks visit per operation: the live
   dependents, not the ~2,000 idle tickets a walk over everything the
   tenant issued would visit. *)
let idle_siblings_edges () =
  let ls = lottery 3 in
  let sr = Ls.sched ls in
  let k = Core.Kernel.create ~sched:sr () in
  let tenant = Ls.make_currency ls "tenant" in
  ignore (Ls.fund_currency ls ~target:tenant ~amount:1000 ~from:(Ls.base_currency ls));
  let never = Core.Kernel.create_semaphore k ~initial:0 "never" in
  for i = 1 to 1000 do
    fund ls ~from:tenant
      (Core.Kernel.spawn k ~name:(sprintf "stub%d" i) (fun () -> Core.Api.sem_wait never))
      10
  done;
  (* the stubs block at once; only then do the workers start *)
  run_for k (ms 1);
  let workers =
    Array.init 4 (fun i ->
        let th = spinner k (sprintf "w%d" i) (ms 100) in
        fund ls ~from:tenant th (100 + i);
        th)
  in
  run_for k (ms 100);
  let decide () =
    match sr.select ~cpu:0 with
    | Some w -> sr.account w ~used:1 ~quantum:1 ~blocked:false
    | None -> ()
  in
  let sys = Ls.funding ls and i = ref 0 in
  let op () =
    let th = workers.(!i land 3) in
    incr i;
    sr.unready th;
    decide ();
    sr.ready th;
    decide ()
  in
  for _ = 1 to 20 do
    op ()
  done;
  let e0 = Core.Funding.edges_walked sys and ops = 200 in
  for _ = 1 to ops do
    op ()
  done;
  float_of_int (Core.Funding.edges_walked sys - e0) /. float_of_int ops

(* A synchronous RPC's ticket transfer (paper §3.1), made through the
   scheduler record as the kernel makes it: the blocked client's donation
   to the server, which issues a ticket in the client's currency and funds
   the server's with it, and its revocation at the reply. Both threads are
   funded from one tenant currency, as in the service, so the cycle check
   in [fund] walks the client's funding chain down to base. *)
let transfer_op () =
  let ls = lottery 2 in
  let sched = Ls.sched ls in
  let k = Core.Kernel.create ~sched () in
  let tenant = Ls.make_currency ls "tenant" in
  ignore (Ls.fund_currency ls ~target:tenant ~amount:1000 ~from:(Ls.base_currency ls));
  let client = spinner k "client" (ms 100) and server = spinner k "server" (ms 100) in
  fund ls ~from:tenant client 100;
  fund ls ~from:tenant server 200;
  run_for k (ms 100);
  fun () ->
    sched.donate ~src:client ~dst:server;
    sched.revoke ~src:client

(* The wait-queue handoff: 64 threads loop on [sem_wait] of one FIFO
   semaphore and a poster posts once per 10 ms quantum, then sleeps. One
   operation is one quantum: the post that hands the permit to the head
   waiter, that waiter's run and re-wait at the tail, and the poster's
   sleep. A queue that copied its waiters would show up as O(waiters)
   words. *)
let sem_handoff_words () =
  let ls = lottery ~mode:Ls.List_mode 2 in
  let k = Core.Kernel.create ~quantum:(ms 10) ~sched:(Ls.sched ls) () in
  let sm = Core.Kernel.create_semaphore k ~initial:0 "handoff" in
  for i = 1 to 64 do
    fund ls
      (Core.Kernel.spawn k ~name:(sprintf "w%d" i) (fun () ->
           while true do
             Core.Api.sem_wait sm
           done))
      10
  done;
  fund ls
    (Core.Kernel.spawn k ~name:"poster" (fun () ->
         while true do
           Core.Api.sem_post sm;
           Core.Api.sleep (ms 10)
         done))
    100;
  exact_words (fun () -> run_for k (ms 10))

(* Effect dispatch, one preempted compute slice: 1000 threads each
   computing exactly one 10 ms quantum per request, so every slice resumes
   the winner, which performs its next [Compute] and is preempted. Each
   [Kernel.run] covers 100 slices, so its [run_summary] is amortized. *)
let effect_compute_words () =
  let ls = lottery 2 in
  let k = Core.Kernel.create ~quantum:(ms 10) ~sched:(Ls.sched ls) () in
  for i = 1 to 1000 do
    fund ls (spinner k (sprintf "c%d" i) (ms 10)) (10 + (i mod 7))
  done;
  let slices = 100 in
  exact_words ~warm:20 ~ops:200 (fun () -> run_for k (slices * ms 10))
  /. float_of_int slices

(* Effect dispatch, one compute -> sleep -> timer-wake cycle: 16 threads
   each compute 1 ms and sleep 20 ms. One operation is one cycle, counted
   by the bodies. *)
let effect_sleep_wake_words () =
  let ls = lottery 2 in
  let k = Core.Kernel.create ~quantum:(ms 10) ~sched:(Ls.sched ls) () in
  let cycles = ref 0 in
  for i = 1 to 16 do
    fund ls
      (Core.Kernel.spawn k ~name:(sprintf "s%d" i) (fun () ->
           while true do
             Core.Api.compute (ms 1);
             Core.Api.sleep (ms 20);
             incr cycles
           done))
      (10 + i)
  done;
  run_for k (Core.Time.seconds 1);
  let c0 = !cycles in
  let w0 = Gc.minor_words () in
  for _ = 1 to 20 do
    run_for k (Core.Time.seconds 1)
  done;
  (Gc.minor_words () -. w0) /. float_of_int (max 1 (!cycles - c0))

let hotpath_rows () =
  List.map
    (fun (name, op) -> ("hotpath/" ^ name ^ ":minor-words", exact_words (op ())))
    [
      ("decision-list", decision_op Ls.List_mode);
      ("decision-tree", decision_op Ls.Tree_mode);
      ("decision-sharded", decision_sharded_op);
      ("fund-reweigh-64", fund_reweigh_op);
      ("transfer", transfer_op);
    ]
  @ [
      ("hotpath/sem-handoff-64:minor-words", sem_handoff_words ());
      ("hotpath/effect-compute:minor-words", effect_compute_words ());
      ("hotpath/effect-sleep-wake:minor-words", effect_sleep_wake_words ());
      ("hotpath/idle-siblings-1000:edges-walked", idle_siblings_edges ());
    ]

(* --- service: arrivals, admission, the whole request path ---------------- *)

(* one interarrival draw of the open-loop generator *)
let arrival_op profile =
  let g = Core.Service.Arrivals.create ~rng:(Core.Rng.create ~seed:41 ()) profile in
  fun () -> ignore (Core.Service.Arrivals.next_gap_us g)

(* the admission decision on a saturated port: four clients parked in
   [rpc] fill a capacity-4 queue that no server drains *)
let shed_op () =
  let ls = lottery ~mode:Ls.List_mode 43 in
  let k = Core.Kernel.create ~sched:(Ls.sched ls) () in
  let port = Core.Kernel.create_port ~capacity:4 ~shed:Core.Types.Reject_new k ~name:"svc" in
  for i = 1 to 4 do
    fund ls
      (Core.Kernel.spawn k ~name:(sprintf "c%d" i) (fun () -> ignore (Core.Api.rpc port "x")))
      100
  done;
  ignore (Core.Kernel.run k ~until:(ms 10));
  assert (Core.Kernel.port_would_shed port);
  fun () -> ignore (Core.Kernel.port_would_shed port)

(* The I/O cycle a served request costs the device: one funded submit and
   one [serve_slot], with the client funded from the scheduler's funding
   graph as [Service.run] funds it, beside a second, idle tenant. Every
   submit wakes the client (its ticket resumes), so every slot's refresh
   revalues it before the draw, and every serve drains it (its ticket is
   suspended again). *)
let io_cycle_op () =
  let module Io = Core.Io_bandwidth in
  let ls = lottery ~mode:Ls.List_mode 47 in
  let dev = Io.create ~funding:(Ls.funding ls) ~rng:(Core.Rng.create ~seed:48 ()) () in
  let tenant name share =
    let cur = Ls.make_currency ls name in
    ignore (Ls.fund_currency ls ~target:cur ~amount:share ~from:(Ls.base_currency ls));
    Io.add_funded_client dev ~name ~currency:cur ()
  in
  let a = tenant "A" 900 in
  ignore (tenant "B" 100);
  fun () ->
    Io.submit dev a ~requests:1;
    ignore (Io.serve_slot dev)

(* Minor words per resolved request (served or shed) on the loaded arm of
   the service-insulation experiment: tenant A (share 900, Poisson 207/s)
   beside tenant B flooding at 10x its share (100, Poisson 200/s), one I/O
   per request on a 2 ms device, composed from the public service API with
   [Metrics] subscribed, as [Service.run] composes it. Counted over 60 s of
   virtual time after a 30 s warm-up. *)
let service_request_words () =
  let module Io = Core.Io_bandwidth in
  let module Svc = Core.Service in
  let tenants =
    [
      Svc.Tenant.spec ~share:900 ~arrivals:(Svc.Arrivals.Poisson 207.) ~io_per_req:1 "A";
      Svc.Tenant.spec ~share:100 ~arrivals:(Svc.Arrivals.Poisson 200.) ~io_per_req:1 "B";
    ]
  in
  let rng = Core.Rng.create ~seed:94 () in
  let io_rng = Core.Rng.split rng in
  let tenant_rngs = List.map (fun _ -> Core.Rng.split rng) tenants in
  let ls = Ls.create ~rng () in
  let k = Core.Kernel.create ~quantum:(ms 10) ~sched:(Ls.sched ls) () in
  Core.Obs.Metrics.attach (Core.Obs.Metrics.create ()) (Core.Kernel.bus k);
  let slo = Svc.Slo.create () in
  let dev = Io.create ~funding:(Ls.funding ls) ~rng:io_rng () in
  List.iter2
    (fun (spec : Svc.Tenant.spec) trng ->
      let cur = Ls.make_currency ls spec.name in
      ignore (Ls.fund_currency ls ~target:cur ~amount:spec.share ~from:(Ls.base_currency ls));
      let ioc = Io.add_funded_client dev ~name:spec.name ~currency:cur () in
      let ten = Svc.Slo.tenant slo spec.name in
      let on_served () =
        ten.io_submitted <- ten.io_submitted + spec.io_per_req;
        Io.submit dev ioc ~requests:spec.io_per_req
      in
      let pool = Svc.Pool.spawn k ~spec ~on_served () in
      let client = Svc.Client.spawn k ~spec ~rng:trng ~slo ~port:(Svc.Pool.port pool) in
      List.iter (fun th -> fund ls ~from:cur th 100) (Svc.Pool.workers pool);
      List.iter (fun th -> fund ls ~from:cur th 1) (Svc.Client.stubs client);
      fund ls ~from:cur (Svc.Client.generator client) 1)
    tenants tenant_rngs;
  fund ls
    (Core.Kernel.spawn k ~name:"io.device" (fun () ->
         while true do
           Core.Api.sleep (ms 2);
           ignore (Io.serve_slot dev)
         done))
    50;
  let resolved () =
    List.fold_left
      (fun acc (ten : Svc.Slo.tenant) -> acc + ten.served + ten.shed)
      0 (Svc.Slo.tenants slo)
  in
  ignore (Core.Kernel.run k ~until:(Core.Time.seconds 30));
  let r0 = resolved () in
  let w0 = Gc.minor_words () in
  ignore (Core.Kernel.run k ~until:(Core.Time.seconds 90));
  (Gc.minor_words () -. w0) /. float_of_int (max 1 (resolved () - r0))

let service_rows () =
  List.map
    (fun (name, op) -> ("service/" ^ name ^ ":minor-words", exact_words ~ops:100_000 (op ())))
    [
      ("arrival-poisson", fun () -> arrival_op (Core.Service.Arrivals.Poisson 1000.));
      ( "arrival-mmpp",
        fun () ->
          arrival_op
            (Core.Service.Arrivals.Mmpp
               { calm_per_s = 500.; burst_per_s = 2000.; calm_ms = 750.; burst_ms = 250. }) );
      ("shed-decision", shed_op);
    ]
  @ [
      ("resmgr/io-cycle:minor-words", exact_words (io_cycle_op ()));
      ("service/request:minor-words", service_request_words ());
    ]

(* --- smp: sharded lotteries across virtual CPUs -------------------------- *)

(* One lottery shard per CPU. *)
let smp_kernel ~cpus ~seed =
  let ls = lottery ~shards:cpus seed in
  (ls, Core.Kernel.create ~cpus ~sched:(Ls.sched ls) ())

(* One thread ping-ponged between two shards of a 10^4-thread sharded
   scheduler by [force_migrate]: O(1) detach, O(log n) re-insert. The
   rebalancer is disabled so it does not fight the ping-pong, and the
   kernel never runs: the decision is driven through the scheduler record. *)
let migration_op () =
  let ls, k = smp_kernel ~cpus:4 ~seed:23 in
  let s = Ls.sched ls in
  let threads =
    Array.init 10_000 (fun i ->
        let th = Core.Kernel.spawn k ~name:(sprintf "t%d" i) ignore in
        fund ls th 100;
        th)
  in
  (match s.select ~cpu:0 with
  | Some th -> s.account th ~used:100 ~quantum:100 ~blocked:false
  | None -> ());
  Ls.set_migration_enabled ls false;
  let victim = threads.(0) in
  let flip = ref false in
  fun () ->
    let dst = if !flip then 0 else 1 in
    flip := not !flip;
    Ls.force_migrate ls victim ~dst

(* A lone thread pinned to shard 0 and a select on CPU 1: the rebalancer
   refuses to move a lone thread (it always overshoots), so every select
   steals. One operation is the steal, the account and the
   [force_migrate] that puts the thread back. *)
let steal_op () =
  let ls, k = smp_kernel ~cpus:2 ~seed:27 in
  Ls.set_placement_hook ls (Some (fun _ -> 0));
  let s = Ls.sched ls in
  fund ls (Core.Kernel.spawn k ~name:"t0" ignore) 100;
  fun () ->
    match s.select ~cpu:1 with
    | Some th ->
        s.account th ~used:100 ~quantum:100 ~blocked:false;
        Ls.force_migrate ls th ~dst:0
    | None -> ()

(* Virtual-time throughput: all virtual CPUs run on one host core, so what
   sharding buys is virtual, c slices per quantum while every CPU finds
   work. Both kernels run 10^5 uniform threads for 50 quanta; the gated
   ratio (1-CPU slices / 4-CPU slices) is 0.25 when the 4-CPU kernel is
   work-conserving and tends to 1.0 as CPUs go idle. *)
let throughput_rows () =
  let slices ~cpus =
    let ls, k = smp_kernel ~cpus ~seed:29 in
    for i = 1 to 100_000 do
      fund ls (spinner k (sprintf "t%d" i) (ms 100)) 100
    done;
    float_of_int (Core.Kernel.run k ~until:(50 * ms 100)).slices
  in
  let s1 = slices ~cpus:1 and s4 = slices ~cpus:4 in
  [
    ("smp/slices-per-quantum-1cpu", s1 /. 50.);
    ("smp/slices-per-quantum-4cpu", s4 /. 50.);
    ("smp/sharded-4cpu-over-1cpu", if s4 > 0. then s1 /. s4 else nan);
  ]

(* Per-shard fairness: the smallest per-shard chi-square p of the sharded
   arm of the smp-fairness experiment, and a pass/fail indicator (fail when
   min p < 0.01). *)
let fairness_rows () =
  let minp =
    Lotto_exp.Smp_fairness.(min_shard_p (run ~duration:(Core.Time.seconds 60) ()))
  in
  [
    ("smp/per-shard-chisq-minp", minp);
    ("smp/per-shard-chisq-fail", if minp >= 0.01 then 0. else 1.);
  ]

let smp_rows () =
  [
    ("smp/migration:minor-words", exact_words (migration_op ()));
    ("smp/steal:minor-words", exact_words (steal_op ()));
  ]
  @ throughput_rows () @ fairness_rows ()

let rows () =
  prng_rows () @ obs_rows () @ hotpath_rows () @ service_rows () @ smp_rows ()

(* --- the gate ------------------------------------------------------------ *)

(* budget file: one "name max" pair per line, [#] comments *)
let read_budget path =
  let ic = open_in path in
  let rec go n acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go (n + 1) acc
        else
          match String.split_on_char ' ' trimmed |> List.filter (( <> ) "") with
          | [ name; v ] -> (
              match float_of_string_opt v with
              | Some f -> go (n + 1) ((name, f) :: acc)
              | None -> failwith (sprintf "%s:%d: bad budget value %S" path n v))
          | _ -> failwith (sprintf "%s:%d: bad budget line %S" path n line))
  in
  go 1 []

(* Print each row once, beside its budget where it has one; then every
   budgeted row that was not computed. Exit 1 when a budgeted row is
   missing, has no value, or exceeds its budget. *)
let gate budget rows =
  let show name v b = Printf.printf "  %-40s %12s%s\n" name v b in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name budget with
      | None -> show name (sprintf "%.3f" v) ""
      | Some max_v ->
          show name (sprintf "%.3f" v) (sprintf "  (budget %.3f)" max_v);
          if Float.is_nan v then fail (sprintf "%s: no value" name)
          else if v > max_v then
            fail (sprintf "%s: measured %.3f exceeds budget %.3f" name v max_v))
    rows;
  List.iter
    (fun (name, max_v) ->
      if not (List.mem_assoc name rows) then begin
        show name "missing" (sprintf "  (budget %.3f)" max_v);
        fail (sprintf "%s: budgeted but not measured" name)
      end)
    budget;
  match List.rev !failures with
  | [] -> if budget <> [] then print_endline "gate passed"
  | fs ->
      List.iter (Printf.printf "GATE FAIL: %s\n") fs;
      exit 1

(* --- the scale smoke ----------------------------------------------------- *)

(* The wall-clock smoke CI runs under a timeout: create 10^5 threads, run
   real quanta, block/wake churn with a lottery per transition, then mass
   kills with the audit on. Any representation regression that turns a
   slice O(n) blows the timeout; the hard checks at the end catch recycling
   bugs. *)
let scale_smoke () =
  let n = 100_000 in
  let t0 = Unix.gettimeofday () in
  let ls = lottery 3 in
  let s = Ls.sched ls in
  let k = Core.Kernel.create ~sched:s () in
  let threads =
    Array.init n (fun i ->
        let th = spinner k (sprintf "t%d" i) (ms 100) in
        fund ls th 100;
        th)
  in
  let t1 = Unix.gettimeofday () in
  Printf.printf "scale-smoke: created and funded %d threads in %.2f s\n%!" n (t1 -. t0);
  run_for k (ms 2_000);
  let t2 = Unix.gettimeofday () in
  Printf.printf "scale-smoke: 20 kernel quanta in %.2f s\n%!" (t2 -. t1);
  let cycles = 50_000 in
  for i = 0 to cycles - 1 do
    let th = threads.(i * 37 mod n) in
    s.unready th;
    ignore (s.select ~cpu:0);
    s.ready th;
    ignore (s.select ~cpu:0)
  done;
  let t3 = Unix.gettimeofday () in
  Printf.printf "scale-smoke: %d block/wake cycles (two draws each) in %.2f s\n%!" cycles
    (t3 -. t2);
  let kills = 10_000 in
  for i = 0 to kills - 1 do
    Core.Kernel.kill k threads.(i)
  done;
  for i = 0 to kills - 1 do
    ignore (spinner k (sprintf "r%d" i) (ms 100))
  done;
  let t4 = Unix.gettimeofday () in
  Printf.printf "scale-smoke: %d kills + %d respawns (recycled slots) in %.2f s\n%!" kills
    kills (t4 -. t3);
  let live = Core.Kernel.live_thread_count k in
  if live <> n then begin
    Printf.printf "scale-smoke: FAIL live_thread_count %d <> %d\n" live n;
    exit 1
  end;
  (match Core.Kernel.check_invariants k with
  | [] -> ()
  | violations ->
      List.iter (Printf.printf "scale-smoke: FAIL %s\n") violations;
      exit 1);
  let t5 = Unix.gettimeofday () in
  Printf.printf "scale-smoke: O(live) kernel audit over %d live threads in %.2f s\n%!" live
    (t5 -. t4);
  Printf.printf "scale-smoke: OK (%.2f s total)\n%!" (t5 -. t0)

let () =
  let budget = ref [] and smoke = ref false in
  Arg.parse
    [
      ( "--gate",
        Arg.String (fun path -> budget := read_budget path),
        "FILE check the rows against the budgets in FILE (exit 1 when a budgeted \
         row is missing or over budget)" );
      ("--scale-smoke", Arg.Set smoke, " run the 10^5-thread kernel smoke instead");
    ]
    (fun a -> raise (Arg.Bad (sprintf "unexpected argument %S" a)))
    "bench [--gate FILE | --scale-smoke]";
  if !smoke then scale_smoke () else gate !budget (rows ())
