(* Benchmark harness.

   Part 1 regenerates every figure/table from the paper's evaluation (the
   experiment modules print the same rows/series the paper reports).

   Part 2 runs Bechamel microbenchmarks for the mechanisms the paper costs
   out in §4.2 and §5.6: list vs tree lottery draws across client counts,
   whole-kernel scheduling decisions under each policy, currency-graph
   valuation, and the PRNGs. *)

open Bechamel
open Toolkit

(* --- part 1: figure regeneration -------------------------------------- *)

let figures () =
  print_endline "=================================================================";
  print_endline " Paper evaluation reproduction (see EXPERIMENTS.md for analysis)";
  print_endline "=================================================================";
  Lotto_exp.Fig4.(print (run ()));
  Lotto_exp.Fig5.(print (run ()));
  Lotto_exp.Fig6.(print (run ()));
  Lotto_exp.Fig7.(print (run ()));
  Lotto_exp.Fig8.(print (run ()));
  Lotto_exp.Fig9.(print (run ()));
  Lotto_exp.Fig11.(print (run ()));
  Lotto_exp.Compensation.(print (run ()));
  Lotto_exp.Overhead.(print (run ()));
  Lotto_exp.Mem.(print (run ()));
  Lotto_exp.Io.(print (run ()));
  Lotto_exp.Disk_exp.(print (run ()));
  Lotto_exp.Switch_exp.(print (run ()));
  Lotto_exp.Ablation_quantum.(print (run ()));
  Lotto_exp.Ablation_variance.(print (run ()));
  Lotto_exp.Disk_service_exp.(print (run ()));
  Lotto_exp.Manager_exp.(print (run ()));
  Lotto_exp.Ablation_mc.(print (run ()));
  Lotto_exp.Search_length.(print (run ()))

(* --- part 2: microbenchmarks ------------------------------------------- *)

let draw_bench_sizes = [ 4; 16; 64; 256; 1024 ]

(* one lottery draw, list vs tree, across client counts (paper §4.2: the
   tree needs only lg n work) *)
let list_draw_test n =
  let rng = Core.Rng.create ~seed:1 () in
  let t = Core.List_lottery.create () in
  for i = 1 to n do
    ignore (Core.List_lottery.add t ~client:i ~weight:(float_of_int i))
  done;
  Test.make
    ~name:(Printf.sprintf "draw/list/%04d" n)
    (Staged.stage (fun () -> ignore (Core.List_lottery.draw t rng)))

let sorted_list_draw_test n =
  let rng = Core.Rng.create ~seed:1 () in
  let t = Core.List_lottery.create ~order:Core.List_lottery.By_weight () in
  for i = 1 to n do
    ignore (Core.List_lottery.add t ~client:i ~weight:(float_of_int i))
  done;
  Test.make
    ~name:(Printf.sprintf "draw/list-sorted/%04d" n)
    (Staged.stage (fun () -> ignore (Core.List_lottery.draw t rng)))

(* the unified Draw front-end every subsystem now draws through: same
   operation across backends, so the numbers are directly comparable *)
let draw_backend_sizes = [ 10; 100; 1000 ]

let draw_backend_test mode mode_name n =
  let rng = Core.Rng.create ~seed:1 () in
  let t = Core.Draw.of_mode mode in
  for i = 1 to n do
    ignore (Core.Draw.add t ~client:i ~weight:(float_of_int i))
  done;
  Test.make
    ~name:(Printf.sprintf "draw-backend/%s/%04d" mode_name n)
    (Staged.stage (fun () -> ignore (Core.Draw.draw_client t rng)))

(* a resource-manager draw end to end: one io-bandwidth slot among n
   permanently backlogged clients *)
let resmgr_draw_test n =
  let rng = Core.Rng.create ~seed:5 () in
  let io = Core.Io_bandwidth.create ~rng () in
  for i = 1 to n do
    let c =
      Core.Io_bandwidth.add_client io
        ~name:(Printf.sprintf "c%d" i)
        ~tickets:(10 * i)
    in
    Core.Io_bandwidth.submit io c ~requests:1_000_000_000
  done;
  Test.make
    ~name:(Printf.sprintf "resmgr-draw/io-list/%04d" n)
    (Staged.stage (fun () -> ignore (Core.Io_bandwidth.serve_slot io)))

let tree_draw_test n =
  let rng = Core.Rng.create ~seed:1 () in
  let t = Core.Tree_lottery.create () in
  for i = 1 to n do
    ignore (Core.Tree_lottery.add t ~client:i ~weight:(float_of_int i))
  done;
  Test.make
    ~name:(Printf.sprintf "draw/tree/%04d" n)
    (Staged.stage (fun () -> ignore (Core.Tree_lottery.draw t rng)))

(* a full scheduling decision: one kernel quantum under each policy with 8
   compute-bound threads (the §5.6 overhead comparison, distilled) *)
let kernel_step_test name make_sched fund =
  let sched, fund_thread = make_sched () in
  let k = Core.Kernel.create ~sched () in
  for i = 1 to 8 do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
          while true do
            Core.Api.compute (Core.Time.ms 100)
          done)
    in
    if fund then fund_thread th (100 * i)
  done;
  Test.make
    ~name:(Printf.sprintf "kernel-quantum/%s" name)
    (Staged.stage (fun () ->
         ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100))))

(* observability tax on the scheduling hot path: the same lottery-list
   kernel quantum with no bus subscribers (emission compiles down to one
   branch), with a trace recorder attached, and with the metrics registry
   attached (§ tentpole acceptance: zero-subscriber stepping must stay
   within noise of the pre-bus kernel) *)
let kernel_obs_test name attach =
  let rng = Core.Rng.create ~seed:2 () in
  let ls = Core.Lottery_sched.create ~rng () in
  let k = Core.Kernel.create ~sched:(Core.Lottery_sched.sched ls) () in
  for i = 1 to 8 do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
          while true do
            Core.Api.compute (Core.Time.ms 100)
          done)
    in
    ignore
      (Core.Lottery_sched.fund_thread ls th ~amount:(100 * i)
         ~from:(Core.Lottery_sched.base_currency ls))
  done;
  attach (Core.Kernel.bus k);
  Test.make
    ~name:(Printf.sprintf "kernel-quantum/%s" name)
    (Staged.stage (fun () ->
         ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100))))

let obs_none_test () = kernel_obs_test "obs-none" (fun _ -> ())

(* pre-select hook tax: the same lottery-list kernel quantum with no hook
   installed (the common case — one option match per slice), with a no-op
   hook, and with a zero-probability chaos injector attached (§ chaos
   acceptance: an absent hook must cost nothing measurable) *)
let kernel_hook_test name install =
  let rng = Core.Rng.create ~seed:2 () in
  let ls = Core.Lottery_sched.create ~rng () in
  let k = Core.Kernel.create ~sched:(Core.Lottery_sched.sched ls) () in
  for i = 1 to 8 do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
          while true do
            Core.Api.compute (Core.Time.ms 100)
          done)
    in
    ignore
      (Core.Lottery_sched.fund_thread ls th ~amount:(100 * i)
         ~from:(Core.Lottery_sched.base_currency ls))
  done;
  install k;
  Test.make
    ~name:(Printf.sprintf "kernel-quantum/%s" name)
    (Staged.stage (fun () ->
         ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100))))

let hook_absent_test () = kernel_hook_test "hook-absent" (fun _ -> ())

let hook_noop_test () =
  kernel_hook_test "hook-noop" (fun k ->
      Core.Kernel.set_pre_select k (Some (fun () -> ())))

let hook_injector_test () =
  kernel_hook_test "hook-injector-idle" (fun k ->
      let inj =
        Core.Chaos.Injector.create ~plan:Core.Chaos.Plan.none
          ~rng:(Core.Rng.create ~seed:9 ())
          ~kernel:k ()
      in
      Core.Kernel.set_pre_select k (Some (fun () -> Core.Chaos.Injector.step inj)))

let obs_recorder_test () =
  kernel_obs_test "obs-recorder" (fun bus ->
      Core.Obs.Recorder.attach (Core.Obs.Recorder.create ~capacity:(1 lsl 16) ()) bus)

let obs_metrics_test () =
  kernel_obs_test "obs-metrics" (fun bus ->
      Core.Obs.Metrics.attach (Core.Obs.Metrics.create ()) bus)

let lottery_sched_maker mode () =
  let rng = Core.Rng.create ~seed:2 () in
  let ls = Core.Lottery_sched.create ~mode ~rng () in
  ( Core.Lottery_sched.sched ls,
    fun th amount ->
      ignore
        (Core.Lottery_sched.fund_thread ls th ~amount
           ~from:(Core.Lottery_sched.base_currency ls)) )

let stride_maker () =
  let st = Core.Stride_sched.create () in
  (Core.Stride_sched.sched st, fun th n -> Core.Stride_sched.set_tickets st th n)

let rr_maker () =
  (Core.Round_robin.sched (Core.Round_robin.create ()), fun _ _ -> ())

let decay_maker () =
  (Core.Decay_usage.sched (Core.Decay_usage.create ()), fun _ _ -> ())

(* currency-graph valuation cost: a deep funding chain and a wide currency *)
let valuation_chain_test depth =
  let sys = Core.Funding.create_system () in
  let base = Core.Funding.base sys in
  let rec build from i =
    if i = depth then from
    else begin
      let c = Core.Funding.make_currency sys ~name:(Printf.sprintf "chain%d" i) in
      let t = Core.Funding.issue sys ~currency:from ~amount:100 in
      Core.Funding.fund sys ~ticket:t ~currency:c;
      build c (i + 1)
    end
  in
  let bottom = build base 0 in
  let held = Core.Funding.issue sys ~currency:bottom ~amount:10 in
  Core.Funding.hold sys held;
  Test.make
    ~name:(Printf.sprintf "valuation/chain-depth-%02d" depth)
    (Staged.stage (fun () -> ignore (Core.Funding.ticket_value sys held)))

let valuation_wide_test width =
  let sys = Core.Funding.create_system () in
  let base = Core.Funding.base sys in
  let c = Core.Funding.make_currency sys ~name:"wide" in
  for _ = 1 to width do
    let t = Core.Funding.issue sys ~currency:base ~amount:10 in
    Core.Funding.fund sys ~ticket:t ~currency:c
  done;
  let held = Core.Funding.issue sys ~currency:c ~amount:10 in
  Core.Funding.hold sys held;
  Test.make
    ~name:(Printf.sprintf "valuation/wide-%03d" width)
    (Staged.stage (fun () -> ignore (Core.Funding.ticket_value sys held)))

(* Incremental valuation under scheduler churn (the point of the scoped
   change events): n runnable funded threads; one operation blocks a thread,
   holds a lottery, wakes it, and holds another. The incremental path pays
   O(1) valuation work per operation regardless of n. The [-fullrefresh]
   baseline calls {!Core.Lottery_sched.mark_dirty} before every select,
   recomputing all n weights per lottery — the behaviour this replaces. *)
let churn_sizes = [ 100; 1000; 10000 ]

let bench_thread id =
  {
    Core.Types.id;
    tslot = id;
    name = Printf.sprintf "t%d" id;
    state = Core.Types.Runnable;
    pending = Core.Types.Exited;
    c_left = 0;
    c_kc = Core.Types.vacant_kc;
    cpu = 0;
    compensate = 1.;
    donating_to = [];
    donors = [];
    owned = [];
    joiners = Core.Waitq.create ();
    servicing = [];
  }

let churn_test mode mode_name ~full n =
  let rng = Core.Rng.create ~seed:7 () in
  let ls = Core.Lottery_sched.create ~mode ~rng () in
  let s = Core.Lottery_sched.sched ls in
  let threads = Array.init n bench_thread in
  let base = Core.Lottery_sched.base_currency ls in
  Array.iter
    (fun th ->
      s.Core.Types.attach th;
      ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base))
    threads;
  ignore (s.Core.Types.select ~cpu:0) (* settle creation-time funding events *);
  let i = ref 0 in
  Test.make
    ~name:
      (Printf.sprintf "valuation/churn-%s%s/%05d" mode_name
         (if full then "-fullrefresh" else "")
         n)
    (Staged.stage (fun () ->
         let th = threads.(!i) in
         i := (!i + 37) mod n;
         s.Core.Types.unready th;
         if full then Core.Lottery_sched.mark_dirty ls;
         ignore (s.Core.Types.select ~cpu:0);
         s.Core.Types.ready th;
         if full then Core.Lottery_sched.mark_dirty ls;
         ignore (s.Core.Types.select ~cpu:0)))

(* --- part 2b: arena scale family (10^5 / 10^6 entities) ---------------- *)

(* The acceptance family for the arena representation: the same full-slice
   operation as the churn tests (block, lottery, wake, lottery — valuation
   flush plus two tree draws) at 10^4, 10^5 and 10^6 threads. With the old
   hashtable/list representation the constant factors and rehash stalls
   made the slice drift toward linear; on flat arenas it must stay polylog:
   the ns-per-slice at 10^6 is gated (see the derived -over- row) at ~2× of
   10^4, i.e. pure lg n growth plus cache effects, not n. *)
let scale_slice_sizes = [ 10_000; 100_000; 1_000_000 ]

let scale_slice_test n =
  let rng = Core.Rng.create ~seed:7 () in
  let ls = Core.Lottery_sched.create ~mode:Core.Lottery_sched.Tree_mode ~rng () in
  let s = Core.Lottery_sched.sched ls in
  let threads = Array.init n bench_thread in
  let base = Core.Lottery_sched.base_currency ls in
  Array.iter
    (fun th ->
      s.Core.Types.attach th;
      ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base))
    threads;
  ignore (s.Core.Types.select ~cpu:0) (* settle creation-time funding events *);
  let i = ref 0 in
  Test.make
    ~name:(Printf.sprintf "slice-tree/%07d" n)
    (Staged.stage (fun () ->
         let th = threads.(!i) in
         i := (!i + 37) mod n;
         s.Core.Types.unready th;
         ignore (s.Core.Types.select ~cpu:0);
         s.Core.Types.ready th;
         ignore (s.Core.Types.select ~cpu:0)))

(* The same population through the real kernel: one 100 ms quantum per
   operation — select (tree draw over n runnable threads), dispatch into
   the effect handler, account. *)
let scale_quantum_sizes = [ 10_000; 100_000 ]

let scale_quantum_test n =
  let rng = Core.Rng.create ~seed:8 () in
  let ls = Core.Lottery_sched.create ~mode:Core.Lottery_sched.Tree_mode ~rng () in
  let k = Core.Kernel.create ~sched:(Core.Lottery_sched.sched ls) () in
  let base = Core.Lottery_sched.base_currency ls in
  for i = 1 to n do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
          while true do
            Core.Api.compute (Core.Time.ms 100)
          done)
    in
    ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base)
  done;
  ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100));
  Test.make
    ~name:(Printf.sprintf "kernel-quantum-tree/%07d" n)
    (Staged.stage (fun () ->
         ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100))))

(* Arena recycling under a live population: spawn a thread and kill it —
   slot alloc/release, currency and ticket arena churn, O(degree) death —
   with 10^5 funded threads resident. *)
let scale_lifecycle_test n =
  let rng = Core.Rng.create ~seed:9 () in
  let ls = Core.Lottery_sched.create ~mode:Core.Lottery_sched.Tree_mode ~rng () in
  let k = Core.Kernel.create ~sched:(Core.Lottery_sched.sched ls) () in
  let base = Core.Lottery_sched.base_currency ls in
  for i = 1 to n do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
          while true do
            Core.Api.compute (Core.Time.ms 100)
          done)
    in
    ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base)
  done;
  let j = ref 0 in
  Test.make
    ~name:(Printf.sprintf "lifecycle-tree/%07d" n)
    (Staged.stage (fun () ->
         incr j;
         let th =
           Core.Kernel.spawn k ~name:(Printf.sprintf "x%d" !j) (fun () -> ())
         in
         Core.Kernel.kill k th))

let scale_tests () =
  Test.make_grouped ~name:"scale-arena"
    (List.map scale_slice_test scale_slice_sizes
    @ List.map scale_quantum_test scale_quantum_sizes
    @ [ scale_lifecycle_test 100_000 ])

(* The wall-clock smoke CI runs under a timeout: create 10^5 threads, run
   real quanta, block/wake churn with a lottery per transition, then mass
   kills with the audit on. Any representation regression that turns a
   slice O(n) blows the timeout; the hard checks at the end catch recycling
   bugs. *)
let scale_smoke () =
  let n = 100_000 in
  let t0 = Unix.gettimeofday () in
  let rng = Core.Rng.create ~seed:3 () in
  let ls = Core.Lottery_sched.create ~mode:Core.Lottery_sched.Tree_mode ~rng () in
  let s = Core.Lottery_sched.sched ls in
  let k = Core.Kernel.create ~sched:s () in
  let base = Core.Lottery_sched.base_currency ls in
  let threads =
    Array.init n (fun i ->
        let th =
          Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
              while true do
                Core.Api.compute (Core.Time.ms 100)
              done)
        in
        ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base);
        th)
  in
  let t1 = Unix.gettimeofday () in
  Printf.printf "scale-smoke: created and funded %d threads in %.2f s\n%!" n
    (t1 -. t0);
  ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 2_000));
  let t2 = Unix.gettimeofday () in
  Printf.printf "scale-smoke: 20 kernel quanta in %.2f s\n%!" (t2 -. t1);
  let cycles = 50_000 in
  for i = 0 to cycles - 1 do
    let th = threads.(i * 37 mod n) in
    s.Core.Types.unready th;
    ignore (s.Core.Types.select ~cpu:0);
    s.Core.Types.ready th;
    ignore (s.Core.Types.select ~cpu:0)
  done;
  let t3 = Unix.gettimeofday () in
  Printf.printf "scale-smoke: %d block/wake cycles (two draws each) in %.2f s\n%!"
    cycles (t3 -. t2);
  let kills = 10_000 in
  for i = 0 to kills - 1 do
    Core.Kernel.kill k threads.(i)
  done;
  for i = 0 to kills - 1 do
    ignore
      (Core.Kernel.spawn k ~name:(Printf.sprintf "r%d" i) (fun () ->
           while true do
             Core.Api.compute (Core.Time.ms 100)
           done))
  done;
  let t4 = Unix.gettimeofday () in
  Printf.printf "scale-smoke: %d kills + %d respawns (recycled slots) in %.2f s\n%!"
    kills kills (t4 -. t3);
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
  Printf.printf
    "scale-smoke: O(live) kernel audit over %d live threads in %.2f s\n%!" live
    (t5 -. t4);
  Printf.printf "scale-smoke: OK (%.2f s total)\n%!" (t5 -. t0)

(* --- part 3: domain-parallel replication wall-clock -------------------- *)

(* Wall-clock of a representative figure subset — the sweep experiments
   whose replications Lotto_par fans out across domains — at 1, 2, 4 and
   8 jobs. Reduced durations keep one pass to a few seconds; the outputs
   are byte-identical across jobs (test_parallel checks this), so only
   the elapsed time varies. Measured with [Unix.gettimeofday] (wall
   clock): process CPU time would sum across domains and hide any
   speedup. The [par/recommended-domains] row records the host's domain
   count so a snapshot from a single-core machine (where speedup is
   physically impossible) is legible as such. *)

let par_jobs = [ 1; 2; 4; 8 ]

let figset ~jobs () =
  ignore
    (Lotto_exp.Fig4.run ~jobs ~duration:(Core.Time.seconds 20) ~runs_per_ratio:2 ());
  ignore (Lotto_exp.Ablation_quantum.run ~jobs ~duration:(Core.Time.seconds 30) ());
  ignore (Lotto_exp.Ablation_mc.run ~jobs ~duration:(Core.Time.seconds 60) ());
  ignore (Lotto_exp.Ablation_variance.run ~jobs ~duration:(Core.Time.seconds 60) ());
  ignore (Lotto_exp.Search_length.run ~jobs ~draws:20_000 ());
  ignore (Lotto_exp.Compensation.run ~jobs ~duration:(Core.Time.seconds 30) ())

let par_rows () =
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    figset ~jobs ();
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "  par/figset-%d: %.2f s wall clock\n%!" jobs dt;
    (Printf.sprintf "par/figset-%d" jobs, dt *. 1e9)
  in
  print_endline "";
  print_endline "=================================================================";
  print_endline " Domain-parallel replication (wall clock per figure-subset pass)";
  print_endline "=================================================================";
  Printf.printf "  host recommended domain count: %d\n%!"
    (Domain.recommended_domain_count ());
  List.map timed par_jobs
  @ [
      ( "par/recommended-domains",
        float_of_int (Domain.recommended_domain_count ()) );
    ]

(* --- observability overhead family ------------------------------------- *)

(* The RPC-heavy kernel quantum the span tracer taxes most: four
   client/server pairs ping-ponging continuously with 1ms of service per
   request, so one measured quantum carries dozens of RPC round trips.
   Variants attach nothing (bus idle: event construction compiles to one
   branch), the metrics registry (counters + histograms), or the span
   tracer. The gate compares spans against off. *)
let kernel_rpc_obs_test name attach =
  let rng = Core.Rng.create ~seed:3 () in
  let ls = Core.Lottery_sched.create ~rng () in
  let k = Core.Kernel.create ~sched:(Core.Lottery_sched.sched ls) () in
  let fund th =
    ignore
      (Core.Lottery_sched.fund_thread ls th ~amount:100
         ~from:(Core.Lottery_sched.base_currency ls))
  in
  for i = 1 to 4 do
    let port = Core.Kernel.create_port k ~name:(Printf.sprintf "p%d" i) in
    fund
      (Core.Kernel.spawn k ~name:(Printf.sprintf "srv%d" i) (fun () ->
           while true do
             let m = Core.Api.receive port in
             Core.Api.compute (Core.Time.ms 1);
             Core.Api.reply m m.Core.Types.payload
           done));
    fund
      (Core.Kernel.spawn k ~name:(Printf.sprintf "cli%d" i) (fun () ->
           while true do
             ignore (Core.Api.rpc port "x")
           done))
  done;
  attach (Core.Kernel.bus k);
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100))))

(* the Hdr.record hot path in isolation; timed by bechamel and counted
   exactly — the budget pins the words at zero *)
let hdr_record_op () =
  let h = Core.Obs.Hdr.create () in
  let i = ref 0 in
  fun () ->
    i := (!i + 7919) land 0xFFFFF;
    Core.Obs.Hdr.record h !i

let hdr_record_test () = Test.make ~name:"hdr" (Staged.stage (hdr_record_op ()))

let obs_tests () =
  Test.make_grouped ~name:"obs-overhead"
    [
      kernel_rpc_obs_test "off" (fun _ -> ());
      kernel_rpc_obs_test "counters" (fun bus ->
          Core.Obs.Metrics.attach (Core.Obs.Metrics.create ()) bus);
      kernel_rpc_obs_test "spans" (fun bus ->
          Core.Obs.Span.attach (Core.Obs.Span.create ()) bus);
      hdr_record_test ();
    ]

(* --- hot-path allocation + flat-draw families --------------------------- *)

(* Exact minor words per operation: [Gc.minor_words] around [ops] runs of
   [op] after [warm] untimed ones. Not a bechamel fit: bechamel's
   [minor_allocated] reads [Gc.quick_stat], whose minor word count only
   advances at a minor collection under OCaml 5, so an operation that
   allocates far less than a minor heap per sample fits to zero whatever
   it allocates. The gated [:minor-words] rows are all counted this way. *)
let exact_words ?(warm = 200) ?(ops = 2000) op =
  for _ = 1 to warm do
    op ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to ops do
    op ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int ops

(* The steady-state scheduling decision — valuation read, draw, account,
   observability off — made through the scheduler record as the kernel
   makes it: one operation is one [select] among 8 compute-bound threads
   and the winner's [account] for a full quantum. Timed by bechamel and
   counted exactly; the decision allocates nothing (slot draws, cached
   weights, preallocated [Some th]). What the kernel does between the two
   calls — resuming the winner, which performs its next [Compute] — is
   hotpath/effect-compute's, and a whole kernel quantum is timed by
   kernel-quantum/*. *)
let decision_mode_op mode () =
  let sched, fund = lottery_sched_maker mode () in
  let k = Core.Kernel.create ~sched () in
  for i = 1 to 8 do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
          while true do
            Core.Api.compute (Core.Time.ms 100)
          done)
    in
    fund th (100 * i)
  done;
  (* one warm quantum: arena growth, pending-funding flush and thread
     startup happen here, outside the measured steady state *)
  ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100));
  let q = Core.Kernel.quantum k in
  fun () ->
    match sched.Core.Types.select ~cpu:0 with
    | Some w -> sched.Core.Types.account w ~used:q ~quantum:q ~blocked:false
    | None -> ()

(* the same decision in sharded mode: a 4-shard scheduler behind a 4-CPU
   kernel, so each operation is one round — four selects (one per shard:
   rebalance check, shard-local draw, dequeue) and then the four winners'
   accounts, which re-enqueue them *)
let decision_sharded_op () =
  let rng = Core.Rng.create ~seed:2 () in
  let ls =
    Core.Lottery_sched.create ~mode:Core.Lottery_sched.Tree_mode ~shards:4 ~rng
      ()
  in
  let sr = Core.Lottery_sched.sched ls in
  let k = Core.Kernel.create ~cpus:4 ~sched:sr () in
  for i = 1 to 8 do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
          while true do
            Core.Api.compute (Core.Time.ms 100)
          done)
    in
    ignore
      (Core.Lottery_sched.fund_thread ls th ~amount:(100 * i)
         ~from:(Core.Lottery_sched.base_currency ls))
  done;
  ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100));
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
   currency on a 4-shard Tree scheduler. One operation is a block and a
   wake of the same thread (unready + ready: its ticket deactivates and
   reactivates, moving the currency's active amount both ways, so all 64
   sibling currencies are dirtied) and one select on CPU 0, which re-weighs
   the 63 runnable siblings and draws; the winner is then accounted, as at
   a slice end, so the shards stay populated. Invalidation, the change
   buffer, the pending re-weigh queue and the Fenwick/shard-tree writes are
   all allocation-free. *)
let fund_reweigh_op () =
  let rng = Core.Rng.create ~seed:5 () in
  let ls =
    Core.Lottery_sched.create ~mode:Core.Lottery_sched.Tree_mode ~shards:4 ~rng
      ()
  in
  let sr = Core.Lottery_sched.sched ls in
  let k = Core.Kernel.create ~cpus:4 ~sched:sr () in
  let cur = Core.Lottery_sched.make_currency ls "family" in
  ignore
    (Core.Lottery_sched.fund_currency ls ~target:cur ~amount:1000
       ~from:(Core.Lottery_sched.base_currency ls));
  let threads =
    Array.init 64 (fun i ->
        let th =
          Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
              while true do
                Core.Api.compute (Core.Time.ms 100)
              done)
        in
        ignore (Core.Lottery_sched.fund_thread ls th ~amount:(10 + i) ~from:cur);
        th)
  in
  ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100));
  let th = threads.(0) in
  fun () ->
    sr.unready th;
    sr.ready th;
    match sr.select ~cpu:0 with
    | Some w -> sr.account w ~used:1 ~quantum:1 ~blocked:false
    | None -> ()

(* The wait-queue handoff: 64 threads loop on [sem_wait] of one FIFO
   semaphore and a poster posts once per quantum, then sleeps. One
   operation is one quantum of virtual time: a post that hands the permit
   to the head waiter, that waiter's run and re-wait at the tail, and the
   poster's sleep. The queue work is O(1) amortized (one cons per wait, a
   copy-free head pop); what remains is the effect and continuation
   residue of the two threads, so a queue that copied its waiters would
   show up here as O(waiters) words. *)
let sem_handoff_words () =
  let sched, fund = lottery_sched_maker Core.Lottery_sched.List_mode () in
  let k = Core.Kernel.create ~quantum:(Core.Time.ms 10) ~sched () in
  let sm = Core.Kernel.create_semaphore k ~initial:0 "handoff" in
  for i = 1 to 64 do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun () ->
          while true do
            Core.Api.sem_wait sm
          done)
    in
    fund th 10
  done;
  let poster =
    Core.Kernel.spawn k ~name:"poster" (fun () ->
        while true do
          Core.Api.sem_post sm;
          Core.Api.sleep (Core.Time.ms 10)
        done)
  in
  fund poster 100;
  exact_words (fun () ->
      ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 10)))

(* Effect dispatch, one preempted compute slice: 1000 compute-bound
   threads, each computing exactly one 10 ms quantum per request, so every
   slice resumes the winner's continuation, which performs its next
   [Compute] and is preempted. One operation is one slice; each
   [Kernel.run] covers 100 of them so its [run_summary] is amortized. *)
let effect_compute_words () =
  let sched, fund = lottery_sched_maker Core.Lottery_sched.Tree_mode () in
  let k = Core.Kernel.create ~quantum:(Core.Time.ms 10) ~sched () in
  for i = 1 to 1000 do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "c%d" i) (fun () ->
          while true do
            Core.Api.compute (Core.Time.ms 10)
          done)
    in
    fund th (10 + (i mod 7))
  done;
  let slices = 100 in
  exact_words ~warm:20 ~ops:200 (fun () ->
      ignore
        (Core.Kernel.run k
           ~until:(Core.Kernel.now k + (slices * Core.Time.ms 10))))
  /. float_of_int slices

(* Effect dispatch, one compute -> sleep -> timer-wake cycle: 16 threads
   each compute 1 ms and sleep 20 ms, so every cycle performs a [Compute]
   and a [Sleep], blocks on the timer heap and is woken by it. One
   operation is one cycle, counted by the bodies. *)
let effect_sleep_wake_words () =
  let sched, fund = lottery_sched_maker Core.Lottery_sched.Tree_mode () in
  let k = Core.Kernel.create ~quantum:(Core.Time.ms 10) ~sched () in
  let cycles = ref 0 in
  for i = 1 to 16 do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "s%d" i) (fun () ->
          while true do
            Core.Api.compute (Core.Time.ms 1);
            Core.Api.sleep (Core.Time.ms 20);
            incr cycles
          done)
    in
    fund th (10 + i)
  done;
  let window () =
    ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.seconds 1))
  in
  window ();
  let c0 = !cycles in
  let w0 = Gc.minor_words () in
  for _ = 1 to 20 do
    window ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (max 1 (!cycles - c0))

(* each hot-path operation is timed by bechamel and counted exactly *)
let hotpath_ops =
  [
    ("decision-list", decision_mode_op Core.Lottery_sched.List_mode);
    ("decision-tree", decision_mode_op Core.Lottery_sched.Tree_mode);
    ("decision-sharded", decision_sharded_op);
    ("fund-reweigh-64", fund_reweigh_op);
  ]

let hotpath_tests () =
  Test.make_grouped ~name:"hotpath"
    (List.map (fun (name, mk) -> Test.make ~name (Staged.stage (mk ()))) hotpath_ops)

(* --- smp family: sharded lotteries across virtual CPUs ------------------ *)

(* One kernel round at c CPUs over n uniformly funded spinners: every CPU
   at the round floor selects (CPU-id order), then the selected slices
   run. The 1-CPU rows use the historical unsharded scheduler — the
   baseline every sharded row is judged against; c > 1 rows shard the
   lottery one shard per CPU. A c-CPU round serves c slices, so the
   per-slice host cost is row/c — all virtual CPUs execute on one host
   core, which is why the acceptance throughput gate below is measured in
   virtual time, not host ns. *)
let smp_round_sizes = [ 10_000; 100_000 ]
let smp_cpu_counts = [ 1; 2; 4; 8 ]

let smp_sched ~cpus ~seed =
  let rng = Core.Rng.create ~seed () in
  if cpus = 1 then
    Core.Lottery_sched.create ~mode:Core.Lottery_sched.Tree_mode ~rng ()
  else
    Core.Lottery_sched.create ~mode:Core.Lottery_sched.Tree_mode ~shards:cpus
      ~rng ()

let smp_round_test ~cpus n =
  let ls = smp_sched ~cpus ~seed:17 in
  let k = Core.Kernel.create ~cpus ~sched:(Core.Lottery_sched.sched ls) () in
  let base = Core.Lottery_sched.base_currency ls in
  for i = 1 to n do
    let th =
      Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
          while true do
            Core.Api.compute (Core.Time.ms 100)
          done)
    in
    ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base)
  done;
  ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100));
  Test.make
    ~name:(Printf.sprintf "round-%dcpu/%07d" cpus n)
    (Staged.stage (fun () ->
         ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100))))

(* The slice decision alone at 10^6 threads, without kernel coroutines:
   select + account driven directly against the sched contract, cycling
   the selecting CPU. Sharded select dequeues the winner (smp semantics),
   account re-enqueues it. *)
let smp_slice_test ~cpus n =
  let ls = smp_sched ~cpus ~seed:19 in
  let s = Core.Lottery_sched.sched ls in
  let base = Core.Lottery_sched.base_currency ls in
  let threads = Array.init n bench_thread in
  Array.iter
    (fun th ->
      s.Core.Types.attach th;
      ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base))
    threads;
  (* settle creation-time funding events; re-enqueue the dequeued winner *)
  (match s.Core.Types.select ~cpu:0 with
  | Some th when cpus > 1 ->
      s.Core.Types.account th ~used:100 ~quantum:100 ~blocked:false
  | _ -> ());
  let cpu = ref 0 in
  Test.make
    ~name:(Printf.sprintf "slice-%dcpu/%07d" cpus n)
    (Staged.stage (fun () ->
         (match s.Core.Types.select ~cpu:!cpu with
         | Some th ->
             s.Core.Types.account th ~used:100 ~quantum:100 ~blocked:false
         | None -> ());
         cpu := (!cpu + 1) mod cpus))

(* Each timing test is built lazily and measured in its own family so only
   one setup (up to a 10^6-thread scheduler) is live at a time — holding
   them all simultaneously inflates every row with cache and GC pressure
   from the others' heaps. *)
let smp_time_thunks () =
  List.concat_map
    (fun n -> List.map (fun cpus () -> smp_round_test ~cpus n) smp_cpu_counts)
    smp_round_sizes
  @ [
      (fun () -> smp_slice_test ~cpus:1 1_000_000);
      (fun () -> smp_slice_test ~cpus:4 1_000_000);
    ]

(* Migration cost, timed and counted exactly: one thread ping-ponged
   between two shards of a 10^4-thread sharded scheduler. force_migrate is
   the bench hook — O(1) detach, O(log n) re-insert, zero steady-state
   allocation (the smp/migration:minor-words budget pins it). The
   rebalancer is disabled so it does not fight the ping-pong. *)
let smp_migration_op () =
  let ls = smp_sched ~cpus:4 ~seed:23 in
  let s = Core.Lottery_sched.sched ls in
  let base = Core.Lottery_sched.base_currency ls in
  let threads = Array.init 10_000 bench_thread in
  Array.iter
    (fun th ->
      s.Core.Types.attach th;
      ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base))
    threads;
  (match s.Core.Types.select ~cpu:0 with
  | Some th -> s.Core.Types.account th ~used:100 ~quantum:100 ~blocked:false
  | None -> ());
  Core.Lottery_sched.set_migration_enabled ls false;
  let victim = threads.(0) in
  let flip = ref false in
  fun () ->
    let dst = if !flip then 0 else 1 in
    flip := not !flip;
    Core.Lottery_sched.force_migrate ls victim ~dst

(* Steal latency: a lone thread pinned to shard 0 and a select on CPU 1 —
   the rebalancer refuses to move it (a lone thread always overshoots),
   so every select steals. Each operation is one steal + the
   force_migrate that resets the shape. *)
let smp_steal_op () =
  let ls = smp_sched ~cpus:2 ~seed:27 in
  Core.Lottery_sched.set_placement_hook ls (Some (fun _ -> 0));
  let s = Core.Lottery_sched.sched ls in
  let base = Core.Lottery_sched.base_currency ls in
  let th = bench_thread 0 in
  s.Core.Types.attach th;
  ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base);
  fun () ->
    match s.Core.Types.select ~cpu:1 with
    | Some th ->
        s.Core.Types.account th ~used:100 ~quantum:100 ~blocked:false;
        Core.Lottery_sched.force_migrate ls th ~dst:0
    | None -> ()

let smp_alloc_tests () =
  Test.make_grouped ~name:"smp"
    [
      Test.make ~name:"migration" (Staged.stage (smp_migration_op ()));
      Test.make ~name:"steal" (Staged.stage (smp_steal_op ()));
    ]

(* Virtual-time throughput — the acceptance measure. Host wall-clock does
   not speed up when virtual CPUs are added (they all run on one host
   core); what sharding buys is virtual throughput: c CPUs serve c slices
   per quantum as long as every CPU finds work. Both kernels run the same
   horizon over 10^5 uniformly funded threads; the derived
   smp/sharded-4cpu-over-1cpu row is the per-slice virtual-cost ratio
   (1-CPU slices / 4-CPU slices): 0.250 when the 4-CPU kernel is
   work-conserving (aggregate slice throughput 4x the baseline),
   degrading toward 1.0 if placement or stealing regressions leave CPUs
   idle. Gated at 0.5 — at least 2x. *)
let smp_throughput_rows () =
  let slices ~cpus n =
    let ls = smp_sched ~cpus ~seed:29 in
    let k = Core.Kernel.create ~cpus ~sched:(Core.Lottery_sched.sched ls) () in
    let base = Core.Lottery_sched.base_currency ls in
    for i = 1 to n do
      let th =
        Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
            while true do
              Core.Api.compute (Core.Time.ms 100)
            done)
      in
      ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base)
    done;
    let summary = Core.Kernel.run k ~until:(50 * Core.Time.ms 100) in
    float_of_int summary.Core.Types.slices
  in
  let quanta = 50. in
  let s1 = slices ~cpus:1 100_000 and s4 = slices ~cpus:4 100_000 in
  [
    ("smp/slices-per-quantum-1cpu", s1 /. quanta);
    ("smp/slices-per-quantum-4cpu", s4 /. quanta);
    ("smp/sharded-4cpu-over-1cpu", if s4 > 0. then s1 /. s4 else nan);
  ]

(* Per-shard fairness evidence for the snapshot: the smallest per-shard
   chi-square p of the sharded arm of the global-vs-sharded experiment,
   and a pass/fail indicator gated at 0 (fail when min p < 0.01). *)
let smp_fairness_rows () =
  let t = Lotto_exp.Smp_fairness.run ~duration:(Core.Time.seconds 60) () in
  let minp = Lotto_exp.Smp_fairness.min_shard_p t in
  [
    ("smp/per-shard-chisq-minp", minp);
    ("smp/per-shard-chisq-fail", if minp >= 0.01 then 0. else 1.);
  ]

(* --- service family: arrival generation + admission control ------------ *)

(* The per-request costs the service layer adds on top of the kernel: one
   interarrival draw per open-loop request (an exponential deviate for
   Poisson; deviates plus the state walk for MMPP) and one admission
   decision per send on a bounded port (an int compare against the queue
   length). Both are timed and counted exactly — a service layer that
   allocated per arrival would own the minor heap at 10^5 req/s horizons,
   so the budget pins the words at zero. *)
let service_arrival_op profile =
  let rng = Core.Rng.create ~seed:41 () in
  let g = Core.Service.Arrivals.create ~rng profile in
  fun () -> ignore (Core.Service.Arrivals.next_gap_us g)

(* the admission decision on a saturated port: four clients parked in
   [rpc] fill a capacity-4 queue (no server ever receives), then every
   measured operation asks whether the next send would shed *)
let service_shed_op () =
  let rng = Core.Rng.create ~seed:43 () in
  let ls = Core.Lottery_sched.create ~rng () in
  let k = Core.Kernel.create ~sched:(Core.Lottery_sched.sched ls) () in
  let port =
    Core.Kernel.create_port ~capacity:4 ~shed:Core.Types.Reject_new k
      ~name:"svc"
  in
  for i = 1 to 4 do
    let c =
      Core.Kernel.spawn k ~name:(Printf.sprintf "c%d" i) (fun () ->
          ignore (Core.Api.rpc port "x"))
    in
    ignore
      (Core.Lottery_sched.fund_thread ls c ~amount:100
         ~from:(Core.Lottery_sched.base_currency ls))
  done;
  ignore (Core.Kernel.run k ~until:(Core.Time.ms 10));
  assert (Core.Kernel.port_would_shed port);
  fun () -> ignore (Core.Kernel.port_would_shed port)

(* Minor words per resolved request (served or shed) on the loaded arm of
   the service-insulation experiment — tenant A (share 900, Poisson 207/s)
   beside tenant B flooding at 10x its share (100, Poisson 200/s), one I/O
   per request on a 2 ms device — composed from the public service API
   with [Metrics] subscribed, as [Service.run] composes it. The whole
   request path is on the meter: RPC, bounded ports, the backlog
   semaphore, ticket transfers, event publication, SLO histograms and the
   I/O manager. A direct count over a virtual window after warm-up
   ([Gc.minor_words] is exact), not a fit. *)
let service_request_words () =
  let module Ls = Core.Lottery_sched in
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
  let k = Core.Kernel.create ~quantum:(Core.Time.ms 10) ~sched:(Ls.sched ls) () in
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
        ten.Svc.Slo.io_submitted <- ten.Svc.Slo.io_submitted + spec.io_per_req;
        Io.submit dev ioc ~requests:spec.io_per_req
      in
      let pool = Svc.Pool.spawn k ~spec ~on_served () in
      let client = Svc.Client.spawn k ~spec ~rng:trng ~slo ~port:(Svc.Pool.port pool) in
      let fund th amount = ignore (Ls.fund_thread ls th ~amount ~from:cur) in
      List.iter (fun th -> fund th 100) (Svc.Pool.workers pool);
      List.iter (fun th -> fund th 1) (Svc.Client.stubs client);
      fund (Svc.Client.generator client) 1)
    tenants tenant_rngs;
  let device =
    Core.Kernel.spawn k ~name:"io.device" (fun () ->
        while true do
          Core.Api.sleep (Core.Time.ms 2);
          ignore (Io.serve_slot dev)
        done)
  in
  ignore (Ls.fund_thread ls device ~amount:50 ~from:(Ls.base_currency ls));
  let resolved () =
    List.fold_left
      (fun acc (ten : Svc.Slo.tenant) -> acc + ten.Svc.Slo.served + ten.Svc.Slo.shed)
      0 (Svc.Slo.tenants slo)
  in
  ignore (Core.Kernel.run k ~until:(Core.Time.seconds 30));
  let r0 = resolved () in
  let w0 = Gc.minor_words () in
  ignore (Core.Kernel.run k ~until:(Core.Time.seconds 90));
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (max 1 (resolved () - r0))

let service_ops =
  [
    ("arrival-poisson", fun () -> service_arrival_op (Core.Service.Arrivals.Poisson 1000.));
    ( "arrival-mmpp",
      fun () ->
        service_arrival_op
          (Core.Service.Arrivals.Mmpp
             { calm_per_s = 500.; burst_per_s = 2000.; calm_ms = 750.; burst_ms = 250. })
    );
    ("shed-decision", service_shed_op);
  ]

let service_tests () =
  Test.make_grouped ~name:"service"
    (List.map (fun (name, mk) -> Test.make ~name (Staged.stage (mk ()))) service_ops)

(* PRNG draw cost (the paper's Appendix A argues ~10 RISC instructions) *)
let prng_test algo name =
  let rng = Core.Rng.create ~algo ~seed:3 () in
  Test.make
    ~name:(Printf.sprintf "prng/%s" name)
    (Staged.stage (fun () -> ignore (Core.Rng.int_below rng 1_000_000)))

let tests () =
  Test.make_grouped ~name:"lottery"
    (List.map list_draw_test draw_bench_sizes
    @ List.map sorted_list_draw_test draw_bench_sizes
    @ List.map tree_draw_test draw_bench_sizes
    @ List.concat_map
        (fun n ->
          [
            draw_backend_test Core.Draw.List "list" n;
            draw_backend_test Core.Draw.Tree "tree" n;
          ])
        draw_backend_sizes
    @ List.map resmgr_draw_test draw_backend_sizes
    @ [
        kernel_step_test "lottery-list" (lottery_sched_maker Core.Lottery_sched.List_mode) true;
        kernel_step_test "lottery-tree" (lottery_sched_maker Core.Lottery_sched.Tree_mode) true;
        kernel_step_test "stride" stride_maker true;
        kernel_step_test "round-robin" rr_maker false;
        kernel_step_test "decay-usage" decay_maker false;
        obs_none_test ();
        obs_recorder_test ();
        obs_metrics_test ();
        hook_absent_test ();
        hook_noop_test ();
        hook_injector_test ();
        valuation_chain_test 2;
        valuation_chain_test 16;
        valuation_wide_test 100;
      ]
    @ List.concat_map
        (fun n ->
          [
            churn_test Core.Lottery_sched.List_mode "list" ~full:false n;
            churn_test Core.Lottery_sched.Tree_mode "tree" ~full:false n;
            churn_test Core.Lottery_sched.List_mode "list" ~full:true n;
            churn_test Core.Lottery_sched.Tree_mode "tree" ~full:true n;
          ])
        churn_sizes
    @ [
        prng_test Core.Rng.Park_miller "park-miller";
        prng_test Core.Rng.Splitmix64 "splitmix64";
        prng_test Core.Rng.Xoshiro256pp "xoshiro256++";
      ])

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances (tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let count_substr hay needle =
  let nl = String.length needle in
  let n = String.length hay in
  let rec go i acc =
    if i + nl > n then acc
    else go (i + 1) (if String.sub hay i nl = needle then acc + 1 else acc)
  in
  if nl = 0 then 0 else go 0 0

let rows_of_measure results label suffix =
  match Hashtbl.find_opt results label with
  | None -> []
  | Some by_test ->
      Hashtbl.fold
        (fun name ols acc ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> est
            | _ -> nan
          in
          (name ^ suffix, est) :: acc)
        by_test []
      |> List.sort compare

let result_rows results =
  rows_of_measure results (Measure.label Instance.monotonic_clock) ""

(* the obs-overhead family runs under a second measure too: minor words per
   operation, the per-sample allocation the budget pins at zero. A derived
   row records the spans-on/off cost ratio of the RPC quantum. *)
let obs_benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances (obs_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let obs_rows () =
  let results = obs_benchmark () in
  let time = result_rows results in
  (* the kernel-quantum rows allocate tens of thousands of words per
     operation, which the fit resolves; the Hdr row is counted exactly *)
  let words =
    List.filter
      (fun (name, _) -> name <> "obs-overhead/hdr:minor-words")
      (rows_of_measure results
         (Measure.label Instance.minor_allocated)
         ":minor-words")
    @ [ ("obs-overhead/hdr:minor-words", exact_words ~ops:100_000 (hdr_record_op ())) ]
  in
  let ratio =
    match
      ( List.assoc_opt "obs-overhead/spans" time,
        List.assoc_opt "obs-overhead/off" time )
    with
    | Some s, Some o when o > 0. -> [ ("obs-overhead/spans-over-off", s /. o) ]
    | _ -> []
  in
  time @ words @ ratio

(* the hot-path family is timed and is also the allocation gate's subject
   (hotpath/*:minor-words rows, counted exactly). *)
let run_family tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let hotpath_rows () =
  let htime = result_rows (run_family (hotpath_tests ())) in
  let hwords =
    List.map
      (fun (name, mk) -> ("hotpath/" ^ name ^ ":minor-words", exact_words (mk ())))
      hotpath_ops
  in
  htime @ hwords
  @ [
      ("hotpath/sem-handoff-64:minor-words", sem_handoff_words ());
      ("hotpath/effect-compute:minor-words", effect_compute_words ());
      ("hotpath/effect-sleep-wake:minor-words", effect_sleep_wake_words ());
    ]

(* the service family: wall-ns per arrival draw and per admission
   decision, plus the exact service/*:minor-words rows the budget gates *)
let service_rows () =
  result_rows (run_family (service_tests ()))
  @ List.map
      (fun (name, mk) ->
        ("service/" ^ name ^ ":minor-words", exact_words ~ops:100_000 (mk ())))
      service_ops
  @ [ ("service/request:minor-words", service_request_words ()) ]

(* the smp family: wall-ns rows for rounds/slices across CPU counts, the
   migration/steal rows under the allocation measure, then the computed
   virtual-throughput and per-shard fairness rows the acceptance gate
   reads *)
let smp_rows () =
  let time =
    List.concat_map
      (fun mk ->
        result_rows
          (run_family (Test.make_grouped ~name:"smp" [ mk () ])))
      (smp_time_thunks ())
  in
  let atime = result_rows (run_family (smp_alloc_tests ())) in
  let awords =
    [
      ("smp/migration:minor-words", exact_words (smp_migration_op ()));
      ("smp/steal:minor-words", exact_words (smp_steal_op ()));
    ]
  in
  (* host-side per-slice cost ratio, for the record: a 4-CPU round serves
     4 slices, so round4 / (4 * round1) ~ 1 means sharding costs nothing
     per slice in host time (the win is virtual, gated below) *)
  let host_ratio =
    match
      ( List.assoc_opt "smp/round-4cpu/0100000" time,
        List.assoc_opt "smp/round-1cpu/0100000" time )
    with
    | Some r4, Some r1 when r1 > 0. ->
        [ ("smp/host-slice-4cpu-over-1cpu", r4 /. (4. *. r1)) ]
    | _ -> []
  in
  time @ atime @ awords @ host_ratio @ smp_throughput_rows ()
  @ smp_fairness_rows ()

(* the arena scale family runs under the same OLS fit; derived rows record
   how the full slice (valuation refresh + draw + dispatch bookkeeping)
   grows as the thread table scales 10x and 100x — the polylog claim in
   one number each. *)
let scale_benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances (scale_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let scale_rows () =
  let time = result_rows (scale_benchmark ()) in
  let ratio num den label =
    match (List.assoc_opt num time, List.assoc_opt den time) with
    | Some a, Some b when b > 0. -> [ (label, a /. b) ]
    | _ -> []
  in
  time
  @ ratio "scale-arena/slice-tree/0100000" "scale-arena/slice-tree/0010000"
      "scale-arena/slice-1e5-over-1e4"
  @ ratio "scale-arena/slice-tree/1000000" "scale-arena/slice-tree/0010000"
      "scale-arena/slice-1e6-over-1e4"
  @ ratio "scale-arena/kernel-quantum-tree/0100000"
      "scale-arena/kernel-quantum-tree/0010000"
      "scale-arena/quantum-1e5-over-1e4"

(* --- the overhead gate -------------------------------------------------- *)

(* budget file: one "name max" pair per line, [#] comments. CI fails when
   any measured obs-overhead row exceeds its recorded budget. *)
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
          match
            String.split_on_char ' ' trimmed |> List.filter (( <> ) "")
          with
          | [ name; v ] -> (
              match float_of_string_opt v with
              | Some f -> go (n + 1) ((name, f) :: acc)
              | None ->
                  failwith
                    (Printf.sprintf "%s:%d: bad budget value %S" path n v))
          | _ -> failwith (Printf.sprintf "%s:%d: bad budget line %S" path n line))
  in
  go 1 []

let gate ~budget_path rows =
  let budget = read_budget budget_path in
  print_endline "";
  print_endline "=================================================================";
  Printf.printf " Observability overhead gate (%s)\n" budget_path;
  print_endline "=================================================================";
  let failures =
    List.filter_map
      (fun (name, max_v) ->
        let show v note =
          Printf.printf "  %-44s %12s (budget %10.3f)\n" name v note
        in
        match List.assoc_opt name rows with
        | None ->
            show "missing" max_v;
            Some (Printf.sprintf "%s: budgeted but not measured" name)
        | Some v when Float.is_nan v ->
            show "no fit" max_v;
            Some (Printf.sprintf "%s: benchmark produced no OLS fit" name)
        | Some v ->
            show (Printf.sprintf "%.3f" v) max_v;
            if v > max_v then
              Some
                (Printf.sprintf "%s: measured %.3f exceeds budget %.3f" name v
                   max_v)
            else None)
      budget
  in
  if failures <> [] then begin
    List.iter (fun f -> Printf.printf "GATE FAIL: %s\n" f) failures;
    exit 1
  end
  else print_endline "gate passed"

let print_results rows =
  print_endline "";
  print_endline "=================================================================";
  print_endline " Microbenchmarks (ns per operation, OLS fit)";
  print_endline "=================================================================";
  if rows = [] then print_endline "no results"
  else
    List.iter
      (fun (name, v) ->
        (* derived rows carry their own units: words/op for :minor-words,
           a dimensionless ratio for -over- *)
        let unit =
          if count_substr name ":minor-words" > 0 then "w/op"
          else if count_substr name "-over-" > 0 then "x"
          else if count_substr name "slices-per-quantum" > 0 then "sl/q"
          else if count_substr name "chisq" > 0 then "p"
          else "ns"
        in
        Printf.printf "  %-40s %12.1f %s\n" name v unit)
      rows

(* machine-readable sink for figure pipelines: one CSV row per benchmark *)
let write_metrics_csv path rows =
  let oc = open_out path in
  output_string oc "benchmark,ns_per_op\n";
  List.iter (fun (name, ns) -> Printf.fprintf oc "%s,%.3f\n" name ns) rows;
  close_out oc;
  Printf.printf "\nwrote %d benchmark rows to %s\n" (List.length rows) path

(* JSON sink for CI artifacts and cross-revision comparison; NaN fits (a
   benchmark whose OLS fit failed) are emitted as null *)
let write_metrics_json path rows =
  let oc = open_out path in
  output_string oc "[\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (name, ns) ->
      let v =
        if Float.is_nan ns then "null" else Printf.sprintf "%.3f" ns
      in
      Printf.fprintf oc "  { \"benchmark\": %S, \"ns_per_op\": %s }%s\n" name v
        (if i < last then "," else ""))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "\nwrote %d benchmark rows to %s\n" (List.length rows) path

let () =
  let run_figures = ref true in
  let run_bench = ref true in
  let run_par = ref false in
  let run_obs = ref false in
  let run_service = ref false in
  let run_smp = ref false in
  let run_scale = ref false in
  let run_smoke = ref false in
  let gate_budget = ref "" in
  let metrics_csv = ref "" in
  let metrics_json = ref "" in
  let spec =
    [
      ("--figures-only", Arg.Unit (fun () -> run_bench := false),
       " regenerate the paper figures/tables and skip microbenchmarks");
      ("--bench-only", Arg.Unit (fun () -> run_figures := false),
       " run only the Bechamel microbenchmarks (includes obs-overhead/*)");
      ( "--par-only",
        Arg.Unit
          (fun () ->
            run_figures := false;
            run_bench := false;
            run_par := true),
        " run only the domain-parallel wall-clock family (par/figset-N)" );
      ( "--obs-only",
        Arg.Unit
          (fun () ->
            run_figures := false;
            run_bench := false;
            run_obs := true),
        " run only the overhead families (obs-overhead/*, hotpath/*)" );
      ( "--service-only",
        Arg.Unit
          (fun () ->
            run_figures := false;
            run_bench := false;
            run_service := true),
        " run only the service family (service/arrival-*, \
         service/shed-decision, with :minor-words rows, and \
         service/request:minor-words)" );
      ( "--smp-only",
        Arg.Unit
          (fun () ->
            run_figures := false;
            run_bench := false;
            run_smp := true),
        " run only the multi-CPU family (smp/round-*, smp/slice-*, \
         smp/migration, smp/steal, virtual-throughput and per-shard \
         fairness rows)" );
      ( "--scale-only",
        Arg.Unit
          (fun () ->
            run_figures := false;
            run_bench := false;
            run_scale := true),
        " run only the arena scale family (scale-arena/* at 10^4..10^6)" );
      ( "--scale-smoke",
        Arg.Unit (fun () -> run_smoke := true),
        " run the 10^5-thread kernel smoke (churn + audit) and exit" );
      ( "--gate",
        Arg.Set_string gate_budget,
        "FILE check obs-overhead results against the recorded budgets \
         (exit 1 on regression)" );
      ("--metrics-csv", Arg.Set_string metrics_csv,
       "FILE also write microbenchmark results as CSV (benchmark,ns_per_op)");
      ("--json", Arg.Set_string metrics_json,
       "FILE also write microbenchmark results as a JSON array");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench [--figures-only | --bench-only | --par-only | --obs-only | \
     --service-only | --smp-only | --scale-only | --scale-smoke] \
     [--gate FILE] [--metrics-csv FILE] [--json FILE]";
  if !run_smoke then begin
    scale_smoke ();
    exit 0
  end;
  if !run_figures then figures ();
  let want_obs = !run_bench || !run_obs || !gate_budget <> "" in
  let want_service = !run_bench || !run_service || !gate_budget <> "" in
  let want_smp = !run_bench || !run_smp || !gate_budget <> "" in
  if !run_bench || !run_par || !run_scale || want_obs || want_service || want_smp
  then begin
    let rows =
      (if !run_bench then result_rows (benchmark ()) else [])
      @ (if want_obs then obs_rows () @ hotpath_rows () else [])
      @ (if want_service then service_rows () else [])
      @ (if want_smp then smp_rows () else [])
      @ (if !run_scale then scale_rows () else [])
      @ (if !run_par then par_rows () else [])
    in
    if !run_bench || !run_obs || !run_service || !run_smp || !run_scale then
      print_results rows;
    if !metrics_csv <> "" then write_metrics_csv !metrics_csv rows;
    if !metrics_json <> "" then write_metrics_json !metrics_json rows;
    if !gate_budget <> "" then gate ~budget_path:!gate_budget rows
  end
