(* The overhead gate: every deterministic row of OBS_BUDGET.txt, one case
   per row, checked against its budget there. Every [:minor-words] row is an
   exact [Gc.minor_words] count ([Fixtures.exact_words]); the others count
   funding edges and hook calls, live words per kill, virtual slices and a
   chi-square failure. A budgeted row that nothing here computes fails its
   case. The one host-time row, obs-overhead/spans-over-off, is checked by
   test/spans_over_off.exe instead. *)

open Core
module Ls = Lottery_sched
module F = Fixtures

let sprintf = Printf.sprintf
let ms = Time.ms

let fund ls ?(from = Ls.base_currency ls) th amount =
  ignore (Ls.fund_thread ls th ~amount ~from)

let run_for k d = ignore (Kernel.run k ~until:(Kernel.now k + d))

let currency ls name amount =
  let c = Ls.make_currency ls name in
  ignore (Ls.fund_currency ls ~target:c ~amount ~from:(Ls.base_currency ls));
  c

(* [n] threads computing 100 ms at a time, the i-th funded [amount i] *)
let spinners ls k ?from n amount =
  Array.init n (fun i ->
      let th = F.spin ~q:(ms 100) k (sprintf "t%d" i) in
      fund ls ?from th (amount i);
      th)

(* one select on CPU 0 and the winner's account for a full [used] quantum,
   made through the scheduler record as the kernel makes them *)
let decide (s : Types.sched) ~used =
  match s.select ~cpu:0 with
  | Some w -> s.account w ~used ~quantum:used ~blocked:false
  | None -> ()

let words ?warm ?ops op () = F.exact_words ?warm ?ops (op ())

(* an I/O device that draws among clients funded from [ls]'s funding graph *)
let io_device ls ~seed =
  Io_bandwidth.create ~funding:(Ls.funding ls) ~rng:(Rng.create ~seed ()) ()

(* --- prng and obs --------------------------------------------------------- *)

(* One [Rng.int_below] on the default Park–Miller generator, cycling through
   single-draw sizes and one past 2^31 - 2, which composes two raw draws. *)
let int_below_op () =
  let rng = Rng.create ~seed:3 () in
  let sizes = [| 2; 7; 1000; 1 lsl 20; 1 lsl 40 |] in
  let i = ref 0 in
  fun () ->
    ignore (Rng.int_below rng sizes.(!i));
    i := (!i + 1) mod Array.length sizes

let hdr_record_op () =
  let h = Obs.Hdr.create () in
  let i = ref 0 in
  fun () ->
    i := (!i + 7919) land 0xFFFFF;
    Obs.Hdr.record h !i

(* One event per operation from a recorded stream (100 ms of the RPC
   quantum: selects, preempts, blocks, wakes, compensations, donations and
   RPC events), fed to a [Metrics] registry that has already seen the whole
   stream once, so every row exists. *)
let metrics_event_op () =
  let recorded = ref [] in
  let run =
    F.rpc_quantum (fun bus ->
        ignore
          (Obs.Bus.subscribe bus (fun time ev -> recorded := (time, ev) :: !recorded)))
  in
  run ();
  let stream = Array.of_list (List.rev !recorded) in
  let m = Obs.Metrics.create () in
  Array.iter (fun (time, ev) -> Obs.Metrics.on_event m time ev) stream;
  let i = ref 0 in
  fun () ->
    let time, ev = stream.(!i) in
    Obs.Metrics.on_event m time ev;
    i := (!i + 1) mod Array.length stream

(* --- hotpath: the scheduling decision and the kernel's dispatch ---------- *)

(* 8 compute-bound threads after one warm quantum, so arena growth, the
   pending-funding flush and thread startup stay out of the measurement *)
let eight ?(mode = Ls.Tree_mode) ?shards ?cpus () =
  let k, ls = F.lottery_kernel ~mode ?shards ?cpus ~seed:2 () in
  ignore (spinners ls k 8 (fun i -> 100 * (i + 1)));
  run_for k (ms 100);
  (Ls.sched ls, Kernel.quantum k)

let decision_op mode () =
  let s, q = eight ~mode () in
  fun () -> decide s ~used:q

(* a round of four selects on a 4-shard scheduler behind 4 CPUs (rebalance
   check, shard-local draw, dequeue), then the four winners' accounts *)
let decision_sharded_op () =
  let s, q = eight ~shards:4 ~cpus:4 () in
  let sel = Array.make 4 None in
  fun () ->
    for cpu = 0 to 3 do
      sel.(cpu) <- s.select ~cpu
    done;
    for cpu = 0 to 3 do
      match sel.(cpu) with
      | Some w -> s.account w ~used:q ~quantum:q ~blocked:false
      | None -> ()
    done

(* The funding mutation path (paper §4.4): 64 threads funded from one
   currency on a 4-shard scheduler. One operation blocks and wakes one
   thread, which dirties all 64 siblings, then a select re-weighs the 63
   runnable ones and draws, and the winner is accounted. *)
let fund_reweigh_op () =
  let k, ls = F.lottery_kernel ~mode:Ls.Tree_mode ~shards:4 ~cpus:4 ~seed:5 () in
  let s = Ls.sched ls in
  let th = (spinners ls k ~from:(currency ls "family" 1000) 64 (fun i -> 10 + i)).(0) in
  run_for k (ms 100);
  fun () ->
    s.unready th;
    s.ready th;
    decide s ~used:1

(* The growth of [count] per block and wake of one of [ths] in turn, each
   followed by a decision, over 200 operations after 20 warm ones. *)
let per_block_wake ls ths count =
  let s = Ls.sched ls and i = ref 0 in
  let op () =
    let th = ths.(!i mod Array.length ths) in
    incr i;
    s.unready th;
    decide s ~used:1;
    s.ready th;
    decide s ~used:1
  in
  for _ = 1 to 20 do
    op ()
  done;
  let c0 = count () in
  for _ = 1 to 200 do
    op ()
  done;
  float_of_int (count () - c0) /. 200.

(* Invalidation's reach (paper §4.4): a tenant currency funds 4
   compute-bound workers and 1,000 stubs blocked on a semaphore nobody
   posts. The row counts the ticket edges the invalidation walks visit: the
   live dependents, not the ~2,000 idle tickets a walk over everything the
   tenant issued would visit. *)
let idle_siblings_edges () =
  let k, ls = F.lottery_kernel ~mode:Ls.Tree_mode ~seed:3 () in
  let tenant = currency ls "tenant" 1000 in
  let never = Kernel.create_semaphore k ~initial:0 "never" in
  for i = 1 to 1000 do
    let stub = Kernel.spawn k ~name:(sprintf "stub%d" i) (fun () -> Api.sem_wait never) in
    fund ls ~from:tenant stub 10
  done;
  (* the stubs block at once; only then do the workers start *)
  run_for k (ms 1);
  let workers = spinners ls k ~from:tenant 4 (fun i -> 100 + i) in
  run_for k (ms 100);
  let sys = Ls.funding ls in
  let edges = per_block_wake ls workers (fun () -> Funding.edges_walked sys) in
  Funding.check_invariants sys;
  edges

(* Consumer calls per funding flip (paper §4.4): a currency funds 64
   compute-bound threads and a funded I/O seat with a backlog, so the
   scheduler watches the 64 thread currencies and the seat table the shared
   one: one hook call per watch of each currency flipped stale. *)
let io_siblings_hook_calls () =
  let k, ls = F.lottery_kernel ~mode:Ls.Tree_mode ~seed:9 () in
  let family = currency ls "family" 1000 in
  let threads = spinners ls k ~from:family 64 (fun i -> 10 + i) in
  let dev = io_device ls ~seed:10 in
  let seat = Io_bandwidth.add_funded_client dev ~name:"seat" ~currency:family () in
  Io_bandwidth.submit dev seat ~requests:1;
  run_for k (ms 100);
  per_block_wake ls threads (fun () -> Funding.hook_calls (Ls.funding ls))

(* A synchronous RPC's ticket transfer (paper §3.1): the blocked client's
   donation to the server and its revocation at the reply, both threads
   funded from one tenant currency, so [fund]'s cycle check walks the
   client's funding chain down to base. *)
let transfer_op () =
  let k, ls = F.lottery_kernel ~mode:Ls.Tree_mode ~seed:2 () in
  let tenant = currency ls "tenant" 1000 in
  let s = Ls.sched ls in
  let client = F.spin ~q:(ms 100) k "client"
  and server = F.spin ~q:(ms 100) k "server" in
  fund ls ~from:tenant client 100;
  fund ls ~from:tenant server 200;
  run_for k (ms 100);
  fun () ->
    s.donate ~src:client ~dst:server;
    s.revoke ~src:client

(* The wait-queue handoff: 64 threads loop on [sem_wait] of one FIFO
   semaphore and a poster posts once per 10 ms quantum, then sleeps. One
   operation is one quantum. *)
let sem_handoff_op () =
  let k, ls = F.lottery_kernel ~mode:Ls.List_mode ~quantum:(ms 10) ~seed:2 () in
  let sm = Kernel.create_semaphore k ~initial:0 "handoff" in
  for i = 1 to 64 do
    fund ls
      (Kernel.spawn k ~name:(sprintf "w%d" i) (fun () ->
           while true do
             Api.sem_wait sm
           done))
      10
  done;
  fund ls
    (Kernel.spawn k ~name:"poster" (fun () ->
         while true do
           Api.sem_post sm;
           Api.sleep (ms 10)
         done))
    100;
  fun () -> run_for k (ms 10)

(* Effect dispatch, one preempted compute slice: 1000 threads each
   computing exactly one 10 ms quantum per request; each [Kernel.run]
   covers 100 slices, so its [run_summary] is amortized. *)
let effect_compute_words () =
  let k, ls = F.lottery_kernel ~mode:Ls.Tree_mode ~quantum:(ms 10) ~seed:2 () in
  for i = 1 to 1000 do
    fund ls (F.spin ~q:(ms 10) k (sprintf "c%d" i)) (10 + (i mod 7))
  done;
  F.exact_words ~warm:20 ~ops:200 (fun () -> run_for k (100 * ms 10)) /. 100.

(* Effect dispatch, one compute -> sleep -> timer-wake cycle of 16 threads
   (compute 1 ms, sleep 20 ms), counted by the bodies. *)
let effect_sleep_wake_words () =
  let k, ls = F.lottery_kernel ~mode:Ls.Tree_mode ~quantum:(ms 10) ~seed:2 () in
  let cycles = ref 0 in
  for i = 1 to 16 do
    fund ls
      (Kernel.spawn k ~name:(sprintf "s%d" i) (fun () ->
           while true do
             Api.compute (ms 1);
             Api.sleep (ms 20);
             incr cycles
           done))
      (10 + i)
  done;
  run_for k (Time.seconds 1);
  let c0 = !cycles in
  let w0 = Gc.minor_words () in
  for _ = 1 to 20 do
    run_for k (Time.seconds 1)
  done;
  (Gc.minor_words () -. w0) /. float_of_int (max 1 (!cycles - c0))

(* --- service and resmgr: arrivals, admission, the request path ------------ *)

(* one interarrival draw of the open-loop generator *)
let arrival_op (profile : Service.Arrivals.profile) () =
  let g = Service.Arrivals.create ~rng:(Rng.create ~seed:41 ()) profile in
  fun () -> ignore (Service.Arrivals.next_gap_us g)

(* the admission decision on a saturated port: four clients parked in
   [rpc] fill a capacity-4 queue that no server drains *)
let shed_op () =
  let k, ls = F.lottery_kernel ~mode:Ls.List_mode ~seed:43 () in
  let port = Kernel.create_port ~capacity:4 ~shed:Types.Reject_new k ~name:"svc" in
  for i = 1 to 4 do
    fund ls (Kernel.spawn k ~name:(sprintf "c%d" i) (fun () -> ignore (Api.rpc port "x")))
      100
  done;
  ignore (Kernel.run k ~until:(ms 10));
  assert (Kernel.port_would_shed port);
  fun () -> ignore (Kernel.port_would_shed port)

(* The I/O cycle a served request costs the device: one funded submit,
   which wakes the client, and one [serve_slot], which revalues it, draws
   it and drains it, beside a second, idle tenant. *)
let io_cycle_op () =
  let _, ls = F.lottery_kernel ~mode:Ls.List_mode ~seed:47 () in
  let dev = io_device ls ~seed:48 in
  let tenant name share =
    Io_bandwidth.add_funded_client dev ~name ~currency:(currency ls name share) ()
  in
  let a = tenant "A" 900 in
  ignore (tenant "B" 100);
  fun () ->
    Io_bandwidth.submit dev a ~requests:1;
    ignore (Io_bandwidth.serve_slot dev)

(* Minor words per resolved request (served or shed) on the loaded arm of
   the service-insulation experiment: tenant A (share 900, Poisson 207/s)
   beside tenant B flooding at 10x its share (100, Poisson 200/s), one I/O
   per request on a 2 ms device, composed from the public service API with
   [Metrics] subscribed, as [Service.run] composes it. Counted over 60 s of
   virtual time after a 30 s warm-up. *)
let service_request_words () =
  let module Svc = Service in
  let tenants =
    [
      Svc.Tenant.spec ~share:900 ~arrivals:(Svc.Arrivals.Poisson 207.) ~io_per_req:1 "A";
      Svc.Tenant.spec ~share:100 ~arrivals:(Svc.Arrivals.Poisson 200.) ~io_per_req:1 "B";
    ]
  in
  let rng = Rng.create ~seed:94 () in
  let io_rng = Rng.split rng in
  let tenant_rngs = List.map (fun _ -> Rng.split rng) tenants in
  let ls = Ls.create ~rng () in
  let k = Kernel.create ~quantum:(ms 10) ~sched:(Ls.sched ls) () in
  Obs.Metrics.attach (Obs.Metrics.create ()) (Kernel.bus k);
  let slo = Svc.Slo.create () in
  let dev = Io_bandwidth.create ~funding:(Ls.funding ls) ~rng:io_rng () in
  List.iter2
    (fun (spec : Svc.Tenant.spec) trng ->
      let cur = currency ls spec.name spec.share in
      let ioc = Io_bandwidth.add_funded_client dev ~name:spec.name ~currency:cur () in
      let ten = Svc.Slo.tenant slo spec.name in
      let on_served () =
        ten.io_submitted <- ten.io_submitted + spec.io_per_req;
        Io_bandwidth.submit dev ioc ~requests:spec.io_per_req
      in
      let pool = Svc.Pool.spawn k ~spec ~on_served () in
      let client = Svc.Client.spawn k ~spec ~rng:trng ~slo ~port:(Svc.Pool.port pool) in
      List.iter (fun th -> fund ls ~from:cur th 100) (Svc.Pool.workers pool);
      List.iter (fun th -> fund ls ~from:cur th 1) (Svc.Client.stubs client);
      fund ls ~from:cur (Svc.Client.generator client) 1)
    tenants tenant_rngs;
  fund ls
    (Kernel.spawn k ~name:"io.device" (fun () ->
         while true do
           Api.sleep (ms 2);
           ignore (Io_bandwidth.serve_slot dev)
         done))
    50;
  let resolved () =
    List.fold_left
      (fun acc (ten : Svc.Slo.tenant) -> acc + ten.served + ten.shed)
      0 (Svc.Slo.tenants slo)
  in
  ignore (Kernel.run k ~until:(Time.seconds 30));
  let r0 = resolved () in
  let w0 = Gc.minor_words () in
  ignore (Kernel.run k ~until:(Time.seconds 90));
  (Gc.minor_words () -. w0) /. float_of_int (max 1 (resolved () - r0))

(* --- smp: sharded lotteries across virtual CPUs --------------------------- *)

(* One thread ping-ponged between two shards of a 10^4-thread sharded
   scheduler by [force_migrate], with the rebalancer off so it does not
   fight the ping-pong; the kernel never runs. *)
let migration_op () =
  let k, ls = F.lottery_kernel ~mode:Ls.Tree_mode ~shards:4 ~cpus:4 ~seed:23 () in
  let threads =
    Array.init 10_000 (fun i ->
        let th = Kernel.spawn k ~name:(sprintf "t%d" i) ignore in
        fund ls th 100;
        th)
  in
  decide (Ls.sched ls) ~used:100;
  Ls.set_migration_enabled ls false;
  let flip = ref false in
  fun () ->
    let dst = if !flip then 0 else 1 in
    flip := not !flip;
    Ls.force_migrate ls threads.(0) ~dst

(* A lone thread pinned to shard 0 and a select on CPU 1: the rebalancer
   refuses to move a lone thread, so every select steals. One operation is
   the steal, the account and the [force_migrate] that puts it back. *)
let steal_op () =
  let k, ls =
    F.lottery_kernel ~mode:Ls.Tree_mode ~placement:(fun _ -> 0) ~shards:2 ~cpus:2 ~seed:27 ()
  in
  let s = Ls.sched ls in
  fund ls (Kernel.spawn k ~name:"t0" ignore) 100;
  fun () ->
    match s.select ~cpu:1 with
    | Some th ->
        s.account th ~used:100 ~quantum:100 ~blocked:false;
        Ls.force_migrate ls th ~dst:0
    | None -> ()

(* A thread's whole life on a 4-shard Tree lottery among 64 funded
   spinners: one operation spawns it (its attach places it on the least
   loaded shard, reading every shard's mass), funds it from a tenant
   currency and kills it before it runs (detach tears its currency and
   tickets down). *)
let spawn_kill_sharded_op () =
  let k, ls = F.lottery_kernel ~mode:Ls.Tree_mode ~shards:4 ~cpus:4 ~seed:31 () in
  ignore (spinners ls k 64 (fun i -> 10 + i));
  run_for k (ms 100);
  let from = currency ls "tenant" 1000 in
  fun () ->
    let th = Kernel.spawn k ~name:"x" ignore in
    fund ls ~from th 10;
    Kernel.kill k th

(* Virtual-time throughput: 10^5 uniform threads for 50 quanta on a 1-CPU
   and a 4-CPU kernel. The ratio of their slices is 0.25 when the 4-CPU
   kernel is work-conserving and tends to 1.0 as CPUs go idle. *)
let sharded_over_one () =
  let slices cpus =
    let k, ls = F.lottery_kernel ~mode:Ls.Tree_mode ~shards:cpus ~cpus ~seed:29 () in
    ignore (spinners ls k 100_000 (fun _ -> 100));
    float_of_int (Kernel.run k ~until:(50 * ms 100)).slices
  in
  let s1 = slices 1 and s4 = slices 4 in
  Printf.printf "smp/slices-per-quantum-1cpu %.3f\nsmp/slices-per-quantum-4cpu %.3f\n"
    (s1 /. 50.) (s4 /. 50.);
  if s4 > 0. then s1 /. s4 else nan

(* 1 when some shard of the smp-fairness experiment's sharded arm fails
   its chi-square test at p >= 0.01 *)
let per_shard_chisq_fail () =
  let minp = Lotto_exp.Smp_fairness.(min_shard_p (run ~duration:(Time.seconds 60) ())) in
  Printf.printf "smp/per-shard-chisq-minp %.3f\n" minp;
  if minp >= 0.01 then 0. else 1.

(* --- the gate ------------------------------------------------------------- *)

let rows =
  [
    ("prng/int-below:minor-words", words ~ops:100_000 int_below_op);
    ("obs-overhead/hdr:minor-words", words ~ops:100_000 hdr_record_op);
    ("obs-overhead/metrics-event:minor-words", words ~ops:100_000 metrics_event_op);
    ("hotpath/decision-list:minor-words", words (decision_op Ls.List_mode));
    ("hotpath/decision-tree:minor-words", words (decision_op Ls.Tree_mode));
    ("hotpath/decision-sharded:minor-words", words decision_sharded_op);
    ("hotpath/fund-reweigh-64:minor-words", words fund_reweigh_op);
    ("hotpath/transfer:minor-words", words transfer_op);
    ("hotpath/sem-handoff-64:minor-words", words sem_handoff_op);
    ("hotpath/effect-compute:minor-words", effect_compute_words);
    ("hotpath/effect-sleep-wake:minor-words", effect_sleep_wake_words);
    ("hotpath/idle-siblings-1000:edges-walked", idle_siblings_edges);
    ("hotpath/io-siblings-64:hook-calls", io_siblings_hook_calls);
    ("service/arrival-poisson:minor-words", words ~ops:100_000 (arrival_op (Poisson 1000.)));
    ( "service/arrival-mmpp:minor-words",
      words ~ops:100_000
        (arrival_op
           (Mmpp { calm_per_s = 500.; burst_per_s = 2000.; calm_ms = 750.; burst_ms = 250. }))
    );
    ("service/shed-decision:minor-words", words ~ops:100_000 shed_op);
    ("resmgr/io-cycle:minor-words", words io_cycle_op);
    ("service/request:minor-words", service_request_words);
    ("smp/migration:minor-words", words migration_op);
    ("smp/steal:minor-words", words steal_op);
    ("smp/spawn-kill-sharded:minor-words", words spawn_kill_sharded_op);
    ("smp/sharded-4cpu-over-1cpu", sharded_over_one);
    ("smp/per-shard-chisq-fail", per_shard_chisq_fail);
    ( "churn/live-words-per-kill",
      (* live words after a full major collection gained per kill in the
         churn world, with a Metrics registry, a span tracer and a recorder
         attached; T's 1,968 deaths are past the registry's 1,024 retained
         dead rows, and the tracer and recorder are full by T *)
      fun () ->
        F.churn_growth ~mode:Ls.Tree_mode (fun bus ->
            let m = Obs.Metrics.create () in
            Obs.Metrics.attach m bus;
            let s = Obs.Span.create ~retain:64 () in
            Obs.Span.attach s bus;
            let r = Obs.Recorder.create ~capacity:4096 () in
            Obs.Recorder.attach r bus;
            [ Obj.repr m; Obj.repr s; Obj.repr r ]) );
  ]

let measure (name, budget) =
  match List.assoc_opt name rows with
  | None -> Error (sprintf "%s: budgeted, but nothing computes it" name)
  | Some row ->
      let v = row () in
      Printf.printf "%s %.3f (budget %.3f)\n" name v budget;
      if v <= budget then Ok ()
      else Error (sprintf "%s: %.3f is over its budget %.3f" name v budget)

let rejects text msg =
  match F.parse_budget "B.txt" text with
  | _ -> Alcotest.failf "accepted %S" text
  | exception Failure m -> Alcotest.(check string) "message" msg m

let budget_file_cases =
  [
    Alcotest.test_case "a row budgeted twice" `Quick (fun () ->
        rejects "a 24.0\n# x\na 8.0\n" "B.txt:3: a is budgeted twice (first at line 1)");
    Alcotest.test_case "a malformed line or value" `Quick (fun () ->
        rejects "a 1.0\nb x\n" "B.txt:2: bad budget value \"x\"";
        rejects "\na 1.0 2.0\n" "B.txt:2: bad budget line \"a 1.0 2.0\"");
    Alcotest.test_case "a row nothing computes" `Quick (fun () ->
        Alcotest.(check (result unit string))
          "fails" (Error "no/such-row: budgeted, but nothing computes it")
          (measure ("no/such-row", 1.)));
  ]

(* "family/row" -> ("family", "row") *)
let split name =
  match String.index_opt name '/' with
  | Some i -> (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> ("", name)

let () =
  (* dune runs the tests from _build/default/test *)
  let budget =
    List.filter (fun (n, _) -> n <> F.spans_row) (F.read_budget "../OBS_BUDGET.txt")
  in
  let family (name, _) = fst (split name) in
  let case ((name, _) as row) =
    Alcotest.test_case (snd (split name)) `Quick (fun () ->
        Result.iter_error Alcotest.fail (measure row))
  in
  Alcotest.run "budget"
    (("budget-file", budget_file_cases)
    :: List.map
         (fun f -> (f, List.map case (List.filter (fun r -> family r = f) budget)))
         (List.sort_uniq compare (List.map family budget)))
