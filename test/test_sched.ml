(* Scheduler policies: lottery (list & tree) proportional share, transfers,
   compensation, mutex lotteries, cleanup; and the baselines (round-robin,
   fixed-priority with inheritance, decay-usage, stride). *)

open Core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let close ?(tol = 0.15) msg expected actual =
  if abs_float (actual -. expected) > tol *. expected then
    Alcotest.failf "%s: expected ~%.3f (±%.0f%%), got %.3f" msg expected
      (100. *. tol) actual

let lottery_kernel = Fixtures.lottery_kernel

let spin = Fixtures.spin

(* --- lottery: proportional share -------------------------------------------- *)

let proportional_share mode () =
  let k, ls = lottery_kernel ~mode ~seed:101 () in
  let base = Lottery_sched.base_currency ls in
  let mk name amount =
    let th = spin k name in
    ignore (Lottery_sched.fund_thread ls th ~amount ~from:base);
    th
  in
  let a = mk "a" 300 and b = mk "b" 200 and c = mk "c" 100 in
  ignore (Kernel.run k ~until:(Time.seconds 120));
  let total = Kernel.cpu_time a + Kernel.cpu_time b + Kernel.cpu_time c in
  checki "fully utilized" (Time.seconds 120) total;
  close "a share" 0.5 (float_of_int (Kernel.cpu_time a) /. float_of_int total);
  close "b share" (1. /. 3.) (float_of_int (Kernel.cpu_time b) /. float_of_int total);
  close ~tol:0.25 "c share" (1. /. 6.) (float_of_int (Kernel.cpu_time c) /. float_of_int total)

let test_list_tree_same_distribution () =
  (* both draw structures must yield statistically identical shares *)
  let share mode =
    let k, ls = lottery_kernel ~mode ~seed:500 () in
    let base = Lottery_sched.base_currency ls in
    let a = spin k "a" and b = spin k "b" in
    ignore (Lottery_sched.fund_thread ls a ~amount:700 ~from:base);
    ignore (Lottery_sched.fund_thread ls b ~amount:300 ~from:base);
    ignore (Kernel.run k ~until:(Time.seconds 100));
    float_of_int (Kernel.cpu_time a)
    /. float_of_int (Kernel.cpu_time a + Kernel.cpu_time b)
  in
  let l = share Lottery_sched.List_mode and t = share Lottery_sched.Tree_mode in
  close ~tol:0.08 "list near 0.7" 0.7 l;
  close ~tol:0.08 "tree near 0.7" 0.7 t

let test_unfunded_fallback () =
  (* threads without tickets may only run via the round-robin fallback *)
  let k, ls = lottery_kernel ~seed:7 () in
  let a = spin k "funded" in
  ignore (Lottery_sched.fund_thread ls a ~amount:100 ~from:(Lottery_sched.base_currency ls));
  let z = spin k "zero" in
  ignore (Kernel.run k ~until:(Time.seconds 10));
  checki "unfunded starves while funded work exists" 0 (Kernel.cpu_time z);
  checki "funded takes everything" (Time.seconds 10) (Kernel.cpu_time a)

let test_fallback_runs_when_nothing_funded () =
  let k, _ls = lottery_kernel ~seed:8 () in
  let a = spin k "a" and b = spin k "b" in
  ignore (Kernel.run k ~until:(Time.seconds 2));
  (* round-robin fallback: both make equal progress *)
  checki "equal split" (Kernel.cpu_time a) (Kernel.cpu_time b)

let test_starvation_free_with_tickets () =
  (* paper §2: any client with nonzero tickets eventually wins *)
  let k, ls = lottery_kernel ~seed:9 () in
  let base = Lottery_sched.base_currency ls in
  let big = spin k "big" and tiny = spin k "tiny" in
  ignore (Lottery_sched.fund_thread ls big ~amount:10_000 ~from:base);
  ignore (Lottery_sched.fund_thread ls tiny ~amount:10 ~from:base);
  ignore (Kernel.run k ~until:(Time.seconds 200));
  checkb "tiny ran" true (Kernel.cpu_time tiny > 0)

let test_dynamic_inflation_shifts_share () =
  let k, ls = lottery_kernel ~seed:10 () in
  let base = Lottery_sched.base_currency ls in
  let a = spin k "a" and b = spin k "b" in
  let ta = Lottery_sched.fund_thread ls a ~amount:100 ~from:base in
  ignore (Lottery_sched.fund_thread ls b ~amount:100 ~from:base);
  ignore (Kernel.run k ~until:(Time.seconds 50));
  let a1 = Kernel.cpu_time a and b1 = Kernel.cpu_time b in
  close ~tol:0.2 "initially equal" 1. (float_of_int a1 /. float_of_int b1);
  Lottery_sched.set_ticket_amount ls ta 300;
  ignore (Kernel.run k ~until:(Time.seconds 150));
  let a2 = Kernel.cpu_time a - a1 and b2 = Kernel.cpu_time b - b1 in
  close ~tol:0.2 "3:1 after inflation" 3. (float_of_int a2 /. float_of_int b2)

let test_currency_isolation () =
  (* shares inside one currency cannot affect another currency's total *)
  let k, ls = lottery_kernel ~seed:11 () in
  let base = Lottery_sched.base_currency ls in
  let u1 = Lottery_sched.make_currency ls "u1" in
  let u2 = Lottery_sched.make_currency ls "u2" in
  ignore (Lottery_sched.fund_currency ls ~target:u1 ~amount:100 ~from:base);
  ignore (Lottery_sched.fund_currency ls ~target:u2 ~amount:100 ~from:base);
  let a = spin k "u1-only" in
  ignore (Lottery_sched.fund_thread ls a ~amount:10 ~from:u1);
  let b = spin k "u2-1" and c = spin k "u2-2" in
  ignore (Lottery_sched.fund_thread ls b ~amount:10 ~from:u2);
  ignore (Lottery_sched.fund_thread ls c ~amount:90 ~from:u2);
  ignore (Kernel.run k ~until:(Time.seconds 100));
  let total = Kernel.cpu_time a + Kernel.cpu_time b + Kernel.cpu_time c in
  close "u1 half despite one thread" 0.5
    (float_of_int (Kernel.cpu_time a) /. float_of_int total);
  close ~tol:0.3 "u2 split 1:9 internally" 9.
    (float_of_int (Kernel.cpu_time c) /. float_of_int (Kernel.cpu_time b))

let test_thread_value_and_detach_cleanup () =
  let k, ls = lottery_kernel ~seed:12 () in
  let base = Lottery_sched.base_currency ls in
  let short =
    Kernel.spawn k ~name:"short" (fun () -> Api.compute (Time.seconds 1))
  in
  ignore (Lottery_sched.fund_thread ls short ~amount:250 ~from:base);
  check (Alcotest.float 1e-6) "thread value equals funding" 250.
    (Lottery_sched.thread_value ls short);
  let long = spin k "long" in
  ignore (Lottery_sched.fund_thread ls long ~amount:250 ~from:base);
  ignore (Kernel.run k ~until:(Time.seconds 10));
  (* exited thread's currency and tickets must be gone *)
  Funding.check_invariants (Lottery_sched.funding ls);
  checkb "short's currency removed" true
    (Funding.find_currency (Lottery_sched.funding ls) "thread:0:short" = None);
  checki "long got the rest" (Time.seconds 10 - Time.seconds 1) (Kernel.cpu_time long)

(* --- lottery: transfers ------------------------------------------------------ *)

let test_rpc_transfer_funds_server () =
  (* an unfunded server must run at its client's rate while serving it; a
     second funded spinner competes for the remaining share *)
  let k, ls = lottery_kernel ~seed:13 () in
  let base = Lottery_sched.base_currency ls in
  let port = Kernel.create_port k ~name:"svc" in
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         while true do
           let m = Api.receive port in
           Api.compute (Time.ms 400);
           Api.reply m ""
         done));
  (* let the (zero-funded) server park in receive before contenders exist,
     as a real server would initialize before its clients *)
  ignore (Kernel.run k ~until:(Time.us 1));
  let completions = ref 0 in
  let client =
    Kernel.spawn k ~name:"client" (fun () ->
        while true do
          ignore (Api.rpc port "x");
          incr completions
        done)
  in
  ignore (Lottery_sched.fund_thread ls client ~amount:300 ~from:base);
  let spinner = spin k "spinner" in
  ignore (Lottery_sched.fund_thread ls spinner ~amount:100 ~from:base);
  ignore (Kernel.run k ~until:(Time.seconds 100));
  (* client's 3/4 share flows to the server: ~75s of service time /400ms *)
  close ~tol:0.2 "server completes at client rate" 187.
    (float_of_int !completions);
  close ~tol:0.2 "spinner keeps its quarter" (float_of_int (Time.seconds 25))
    (float_of_int (Kernel.cpu_time spinner))

let test_transfer_chain_transitive () =
  (* client -> front server -> back server: the back server must inherit the
     client's funding through the chain while everyone else competes *)
  let k, ls = lottery_kernel ~seed:14 () in
  let base = Lottery_sched.base_currency ls in
  let front = Kernel.create_port k ~name:"front" in
  let back = Kernel.create_port k ~name:"back" in
  ignore
    (Kernel.spawn k ~name:"backend" (fun () ->
         while true do
           let m = Api.receive back in
           Api.compute (Time.ms 300);
           Api.reply m ""
         done));
  ignore
    (Kernel.spawn k ~name:"frontend" (fun () ->
         while true do
           let m = Api.receive front in
           let r = Api.rpc back m.payload in
           Api.reply m r
         done));
  ignore (Kernel.run k ~until:(Time.us 1));
  let completions = ref 0 in
  let client =
    Kernel.spawn k ~name:"client" (fun () ->
        while true do
          ignore (Api.rpc front "x");
          incr completions
        done)
  in
  ignore (Lottery_sched.fund_thread ls client ~amount:300 ~from:base);
  let spinner = spin k "competitor" in
  ignore (Lottery_sched.fund_thread ls spinner ~amount:100 ~from:base);
  ignore (Kernel.run k ~until:(Time.seconds 60));
  (* back server serves at the client's 3/4 share: 45s / 300ms = 150 *)
  close ~tol:0.25 "chain delivers client funding to the backend" 150.
    (float_of_int !completions)

let test_divided_transfer_splits_equally () =
  (* a client scattering to two unfunded servers funds each with half its
     value: both servers then tie a spinner holding exactly half the
     client's tickets *)
  let k, ls = lottery_kernel ~seed:21 () in
  let base = Lottery_sched.base_currency ls in
  let mk_server name =
    let port = Kernel.create_port k ~name in
    let th =
      Kernel.spawn k ~name:(name ^ "-srv") (fun () ->
          let m = Api.receive port in
          Api.compute (Time.seconds 10);
          Api.reply m "")
    in
    (port, th)
  in
  let p1, s1 = mk_server "s1" in
  let p2, s2 = mk_server "s2" in
  ignore (Kernel.run k ~until:(Time.us 1));
  let client =
    Kernel.spawn k ~name:"client" (fun () ->
        ignore (Api.rpc_many [ (p1, "x"); (p2, "x") ]))
  in
  ignore (Lottery_sched.fund_thread ls client ~amount:400 ~from:base);
  let spinner = spin k "spinner" in
  ignore (Lottery_sched.fund_thread ls spinner ~amount:200 ~from:base);
  ignore (Kernel.run k ~until:(Time.seconds 15));
  (* weights while all run: 200 / 200 / 200 -> equal thirds *)
  close ~tol:0.15 "server1 third" (float_of_int (Time.seconds 5))
    (float_of_int (Kernel.cpu_time s1));
  close ~tol:0.15 "server2 third" (float_of_int (Time.seconds 5))
    (float_of_int (Kernel.cpu_time s2));
  close ~tol:0.15 "spinner third" (float_of_int (Time.seconds 5))
    (float_of_int (Kernel.cpu_time spinner))

let test_divided_transfer_reconcentrates () =
  (* when one server of a divided transfer replies, its share flows back to
     the stragglers: the slow server speeds up after the fast one finishes *)
  let k, ls = lottery_kernel ~seed:22 () in
  let base = Lottery_sched.base_currency ls in
  let mk_server name work =
    let port = Kernel.create_port k ~name in
    ignore
      (Kernel.spawn k ~name:(name ^ "-srv") (fun () ->
           let m = Api.receive port in
           Api.compute work;
           Api.reply m ""));
    port
  in
  let fast = mk_server "fast" (Time.seconds 5) in
  let slow = mk_server "slow" (Time.seconds 15) in
  ignore (Kernel.run k ~until:(Time.us 1));
  let finished = ref (-1) in
  let client =
    Kernel.spawn k ~name:"client" (fun () ->
        ignore (Api.rpc_many [ (fast, "x"); (slow, "x") ]);
        finished := Api.now ())
  in
  ignore (Lottery_sched.fund_thread ls client ~amount:400 ~from:base);
  let spinner = spin k "spinner" in
  ignore (Lottery_sched.fund_thread ls spinner ~amount:200 ~from:base);
  ignore (Kernel.run k ~until:(Time.seconds 60));
  (* phase 1 (thirds): fast done ~15s with slow at ~5s done; phase 2: slow
     at 400 vs 200 -> 2/3 share, 10s left -> ~15s more. Total ~30s. A
     static split would take ~45s. *)
  checkb
    (Printf.sprintf "scatter completed at %.1fs (static split ~45s)"
       (Time.to_seconds !finished))
    true
    (!finished > 0 && !finished < Time.seconds 37)

(* --- lottery: compensation ----------------------------------------------------- *)

let test_compensation_restores_share () =
  let run use_compensation =
    let k, ls = lottery_kernel ~seed:15 ~use_compensation () in
    let base = Lottery_sched.base_currency ls in
    let hog =
      Kernel.spawn k ~name:"hog" (fun () ->
          while true do
            Api.compute (Time.ms 100)
          done)
    in
    let nibbler =
      Kernel.spawn k ~name:"nibbler" (fun () ->
          while true do
            Api.compute (Time.ms 20);
            Api.yield ()
          done)
    in
    ignore (Lottery_sched.fund_thread ls hog ~amount:100 ~from:base);
    ignore (Lottery_sched.fund_thread ls nibbler ~amount:100 ~from:base);
    ignore (Kernel.run k ~until:(Time.seconds 100));
    float_of_int (Kernel.cpu_time hog) /. float_of_int (Kernel.cpu_time nibbler)
  in
  close ~tol:0.2 "with compensation 1:1" 1. (run true);
  close ~tol:0.2 "without compensation 5:1" 5. (run false)

(* --- lottery: mutex ---------------------------------------------------------------- *)

let test_lottery_mutex_prefers_funded_waiters () =
  let k, ls = lottery_kernel ~seed:16 () in
  let base = Lottery_sched.base_currency ls in
  let m = Kernel.create_mutex k ~policy:Types.Lottery_wake "m" in
  let mk name amount =
    let c = Mutex_workload.spawn_contender k ~mutex:m ~name ~hold:(Time.ms 50) ~work:(Time.ms 50) () in
    ignore (Lottery_sched.fund_thread ls (Mutex_workload.thread c) ~amount ~from:base);
    c
  in
  let rich = Array.init 3 (fun i -> mk (Printf.sprintf "r%d" i) 300) in
  let poor = Array.init 3 (fun i -> mk (Printf.sprintf "p%d" i) 100) in
  ignore (Kernel.run k ~until:(Time.seconds 120));
  let acq g = Array.fold_left (fun acc c -> acc + Mutex_workload.acquisitions c) 0 g in
  let wait g =
    Descriptive.mean
      (Array.concat (Array.to_list (Array.map Mutex_workload.waiting_times g)))
  in
  checkb "rich acquire more" true (acq rich > acq poor);
  checkb "rich wait less" true (wait rich < wait poor)

let test_lottery_semaphore_prefers_funded () =
  (* a lottery-wake semaphore guarding one permit behaves like the §6.1
     mutex: funded waiters get it more often *)
  let k, ls = lottery_kernel ~seed:19 () in
  let base = Lottery_sched.base_currency ls in
  let sm = Kernel.create_semaphore k ~policy:Types.Lottery_wake ~initial:1 "permit" in
  let acquisitions = Array.make 2 0 in
  let mk i amount =
    let th =
      Kernel.spawn k ~name:(Printf.sprintf "g%d" i) (fun () ->
          while true do
            Api.sem_wait sm;
            acquisitions.(i) <- acquisitions.(i) + 1;
            Api.compute (Time.ms 50);
            Api.sem_post sm;
            Api.compute (Time.ms 50)
          done)
    in
    ignore (Lottery_sched.fund_thread ls th ~amount ~from:base)
  in
  (* two rich threads and two poor threads, bucketed by group *)
  mk 0 300;
  mk 0 300;
  mk 1 100;
  mk 1 100;
  ignore (Kernel.run k ~until:(Time.seconds 120));
  checkb
    (Printf.sprintf "funded group acquires more (%d vs %d)" acquisitions.(0)
       acquisitions.(1))
    true
    (acquisitions.(0) > acquisitions.(1))

let test_lottery_condition_wakes_funded_first () =
  (* a lottery-wake condition's signal picks waiters by funding *)
  let k, ls = lottery_kernel ~seed:20 () in
  let base = Lottery_sched.base_currency ls in
  let m = Kernel.create_mutex k "m" in
  let c = Kernel.create_condition k ~policy:Types.Lottery_wake "c" in
  let first_wakes = Array.make 2 0 in
  let mk i amount =
    let th =
      Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun () ->
          while true do
            Api.lock m;
            Api.wait c m;
            first_wakes.(i) <- first_wakes.(i) + 1;
            Api.unlock m;
            Api.compute (Time.ms 1)
          done)
    in
    ignore (Lottery_sched.fund_thread ls th ~amount ~from:base)
  in
  mk 0 900;
  mk 1 100;
  ignore
    (Kernel.spawn k ~name:"signaller" (fun () ->
         while true do
           Api.sleep (Time.ms 20);
           (* one signal per round: the lottery picks who proceeds *)
           Api.lock m;
           Api.signal c;
           Api.unlock m
         done));
  ignore (Kernel.run k ~until:(Time.seconds 120));
  checkb
    (Printf.sprintf "funded waiter signalled more (%d vs %d)" first_wakes.(0)
       first_wakes.(1))
    true
    (first_wakes.(0) > 2 * first_wakes.(1))

(* --- baselines ------------------------------------------------------------------------ *)

let test_round_robin_equal_split () =
  let rr = Round_robin.create () in
  let k = Kernel.create ~sched:(Round_robin.sched rr) () in
  let ths = Array.init 4 (fun i -> spin k (Printf.sprintf "t%d" i)) in
  ignore (Kernel.run k ~until:(Time.seconds 8));
  Array.iter (fun th -> checki "equal share" (Time.seconds 2) (Kernel.cpu_time th)) ths;
  checkb "selections counted" true (Round_robin.selections rr >= 80)

let test_decay_usage_equalizes () =
  let du = Decay_usage.create () in
  let k = Kernel.create ~sched:(Decay_usage.sched du) () in
  let a = spin k "a" and b = spin k "b" and c = spin k "c" in
  ignore (Kernel.run k ~until:(Time.seconds 9));
  close ~tol:0.05 "a third each" (float_of_int (Time.seconds 3))
    (float_of_int (Kernel.cpu_time a));
  close ~tol:0.05 "b third" (float_of_int (Time.seconds 3))
    (float_of_int (Kernel.cpu_time b));
  ignore c

let test_decay_usage_favors_fresh_threads () =
  let du = Decay_usage.create () in
  let k = Kernel.create ~sched:(Decay_usage.sched du) () in
  let hog = spin k "hog" in
  ignore
    (Kernel.spawn k ~name:"sleeper" (fun () ->
         Api.sleep (Time.seconds 5);
         let t0 = Api.now () in
         Api.compute (Time.ms 100);
         (* must get the CPU immediately: its decayed usage is zero *)
         if Api.now () - t0 > Time.ms 200 then failwith "starved"));
  ignore (Kernel.run k ~until:(Time.seconds 10));
  checkb "sleeper not starved" true (Kernel.failures k = []);
  checkb "hog ran" true (Kernel.cpu_time hog > 0)

let test_stride_exact_proportionality () =
  let st = Stride_sched.create () in
  let k = Kernel.create ~sched:(Stride_sched.sched st) () in
  let a = spin k "a" and b = spin k "b" and c = spin k "c" in
  Stride_sched.set_tickets st a 3;
  Stride_sched.set_tickets st b 2;
  Stride_sched.set_tickets st c 1;
  ignore (Kernel.run k ~until:(Time.seconds 60));
  (* stride is deterministic: error bounded by one quantum, far tighter
     than the lottery's statistical bounds *)
  let q = float_of_int (Time.ms 100) in
  let expect share th =
    let got = float_of_int (Kernel.cpu_time th) in
    let want = share *. float_of_int (Time.seconds 60) in
    if abs_float (got -. want) > 2. *. q then
      Alcotest.failf "stride share off: want %.0f got %.0f" want got
  in
  expect 0.5 a;
  expect (1. /. 3.) b;
  expect (1. /. 6.) c

let test_stride_ticket_change () =
  let st = Stride_sched.create () in
  let k = Kernel.create ~sched:(Stride_sched.sched st) () in
  let a = spin k "a" and b = spin k "b" in
  Stride_sched.set_tickets st a 1;
  Stride_sched.set_tickets st b 1;
  ignore (Kernel.run k ~until:(Time.seconds 10));
  let a1 = Kernel.cpu_time a in
  Stride_sched.set_tickets st a 4;
  ignore (Kernel.run k ~until:(Time.seconds 20));
  let a2 = Kernel.cpu_time a - a1 in
  close ~tol:0.1 "a takes 4/5 after change" (0.8 *. float_of_int (Time.seconds 10))
    (float_of_int a2);
  checki "tickets readback" 4 (Stride_sched.tickets st a)

let test_baseline_accessors () =
  let du = Decay_usage.create ~half_life:(Time.seconds 1) () in
  let k2 = Kernel.create ~sched:(Decay_usage.sched du) () in
  let b = spin k2 "b" in
  ignore (Kernel.run k2 ~until:(Time.seconds 1));
  checkb "usage accumulates" true (Decay_usage.usage du b > 0.);
  let st = Stride_sched.create () in
  let k3 = Kernel.create ~sched:(Stride_sched.sched st) () in
  let c = spin k3 "c" in
  Stride_sched.set_tickets st c 5;
  ignore (Kernel.run k3 ~until:(Time.seconds 1));
  checkb "pass advances" true (Stride_sched.pass st c > 0.);
  checkb "zero tickets rejected" true
    (match Stride_sched.set_tickets st c 0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_lottery_introspection () =
  let k, ls = lottery_kernel ~seed:17 () in
  let a = spin k "a" in
  ignore (Lottery_sched.fund_thread ls a ~amount:10 ~from:(Lottery_sched.base_currency ls));
  checki "one runnable" 1 (Lottery_sched.runnable_count ls);
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "draws counted" true (Lottery_sched.draws ls >= 10);
  checkb "list comparisons exposed" true (Lottery_sched.list_comparisons ls <> None);
  let _, ls_tree = lottery_kernel ~mode:Lottery_sched.Tree_mode ~seed:18 () in
  checkb "tree mode has no list stats" true
    (Lottery_sched.list_comparisons ls_tree = None);
  (* the search length sums over every shard's list, not just shard 0's *)
  let ls2 =
    Lottery_sched.create ~mode:Lottery_sched.List_mode ~shards:2
      ~rng:(Rng.create ~seed:19 ()) ()
  in
  let k2 = Kernel.create ~cpus:2 ~sched:(Lottery_sched.sched ls2) () in
  for i = 1 to 4 do
    ignore
      (Lottery_sched.fund_thread ls2 (spin k2 (Printf.sprintf "s%d" i))
         ~amount:(100 * i) ~from:(Lottery_sched.base_currency ls2))
  done;
  ignore (Kernel.run k2 ~until:(Time.seconds 1));
  checkb "2-shard list comparisons counted" true
    (match Lottery_sched.list_comparisons ls2 with Some n -> n > 0 | None -> false)

(* A thread record outside any kernel, for driving the scheduler record
   directly. *)
let bare_thread id =
  {
    Types.id;
    tslot = id;
    name = Printf.sprintf "t%d" id;
    state = Types.Runnable;
    pending = Types.Exited;
    c_left = 0;
    c_kc = Types.vacant_kc;
    cpu = 0;
    compensate = 1.;
    owned = [];
    joiners = Waitq.create ();
    servicing = [];
  }

(* The scheduler's transfer record is the only one, so its audit holds
   the kernel's rules: a thread holds transfers only while Blocked, and
   only to live threads. Driven through the scheduler record, which lets
   a waker skip the revoke the kernel would make. *)
let transfer_pair seed =
  let ls = Lottery_sched.create ~rng:(Rng.create ~seed ()) () in
  let s = Lottery_sched.sched ls in
  let client = bare_thread 0 and server = bare_thread 1 in
  s.Types.attach client;
  s.Types.attach server;
  s.Types.unready client;
  client.Types.state <- Types.Blocked;
  s.Types.donate ~src:client ~dst:server;
  (ls, s, client, server)

let test_coherence_flags_runnable_donor () =
  let ls, s, client, server = transfer_pair 3 in
  let audit () = Lottery_sched.check_funding_coherence ls [ client; server ] in
  check (Alcotest.list Alcotest.string) "a blocked donor is clean" [] (audit ());
  client.Types.state <- Types.Runnable;
  s.Types.ready client;
  check (Alcotest.list Alcotest.string) "woken without a revoke"
    [ "t0: holds transfers while not Blocked" ] (audit ());
  s.Types.revoke ~src:client;
  check (Alcotest.list Alcotest.string) "clean once revoked" [] (audit ())

let test_coherence_flags_dead_target () =
  let ls, _, client, server = transfer_pair 4 in
  check (Alcotest.list Alcotest.string) "a live target is clean" []
    (Lottery_sched.check_funding_coherence ls [ client; server ]);
  check (Alcotest.list Alcotest.string) "a target outside the live threads"
    [ "t0: transfers to thread 1, which is not live" ]
    (Lottery_sched.check_funding_coherence ls [ client ])

(* Incremental valuation in the scheduler: with N runnable threads, blocking
   and waking one of them must never trigger a full weight refresh, and each
   block/wake cycle must cost exactly one scoped per-thread weight update —
   independent of N. Drives the sched callbacks directly so nothing else
   perturbs the funding graph between selects. *)
let test_scoped_updates_on_block_wake () =
  let rng = Rng.create ~seed:4242 () in
  let ls = Lottery_sched.create ~rng () in
  let s = Lottery_sched.sched ls in
  let n = 50 in
  let threads = Array.init n bare_thread in
  let base = Lottery_sched.base_currency ls in
  Array.iter
    (fun th ->
      s.Types.attach th;
      ignore (Lottery_sched.fund_thread ls th ~amount:100 ~from:base))
    threads;
  (* one settling select drains the creation-time funding events *)
  ignore (s.Types.select ~cpu:0);
  let fr0 = Lottery_sched.full_refreshes ls in
  let su0 = Lottery_sched.scoped_weight_updates ls in
  let cycles = 10 in
  for i = 1 to cycles do
    let th = threads.(i * 3 mod n) in
    s.Types.unready th;
    ignore (s.Types.select ~cpu:0);
    s.Types.ready th;
    ignore (s.Types.select ~cpu:0)
  done;
  checki "steady-state selects never fall back to a full refresh" fr0
    (Lottery_sched.full_refreshes ls);
  checki "each block/wake cycle costs exactly one scoped weight update"
    (su0 + cycles)
    (Lottery_sched.scoped_weight_updates ls)

(* Invalidation follows live funding edges only (paper §4.4: a blocked
   thread's tickets are inactive). A tenant currency funds 4 runnable
   workers and 1,000 blocked stubs; blocking and waking a worker must not
   visit the stubs' idle tickets, which a walk over every ticket the
   tenant issued would (about 2,000 edges per cycle). *)
let test_block_wake_skips_idle_siblings () =
  let ls = Lottery_sched.create ~rng:(Rng.create ~seed:7 ()) () in
  let s = Lottery_sched.sched ls in
  let sys = Lottery_sched.funding ls in
  let tenant = Lottery_sched.make_currency ls "tenant" in
  ignore
    (Lottery_sched.fund_currency ls ~target:tenant ~amount:1000
       ~from:(Lottery_sched.base_currency ls));
  let spawn id =
    let th = bare_thread id in
    s.Types.attach th;
    ignore (Lottery_sched.fund_thread ls th ~amount:(10 + (id mod 7)) ~from:tenant);
    th
  in
  let workers = Array.init 4 spawn in
  for i = 4 to 1003 do
    s.Types.unready (spawn i)
  done;
  ignore (s.Types.select ~cpu:0);
  let e0 = Lotto_tickets.Funding.edges_walked sys in
  let cycles = 40 in
  for i = 1 to cycles do
    let th = workers.(i mod 4) in
    s.Types.unready th;
    ignore (s.Types.select ~cpu:0);
    s.Types.ready th;
    ignore (s.Types.select ~cpu:0)
  done;
  let per_cycle =
    float_of_int (Lotto_tickets.Funding.edges_walked sys - e0) /. float_of_int cycles
  in
  check Alcotest.bool
    (Printf.sprintf "%.1f edges walked per block/wake cycle (<= 16)" per_cycle)
    true (per_cycle <= 16.);
  Lotto_tickets.Funding.check_invariants sys

(* The order a flush writes weights in is not visible in any digest until
   float rounding makes it so, so these tests read it off a shard's mass:
   with two Tree shards, every thread pinned to shard 0 and migration off,
   the mass is shard 0's Fenwick root, which moves only by each re-weighed
   thread's delta, added in write order. The deltas carry the mass across
   a power of two, where the rounding grid changes, so the sum keeps their
   order. [replay] recomputes the mass for an order with the same float
   adds. A select on the empty shard 1 flushes without drawing anyone out
   of shard 0. *)
let pinned_lottery () =
  let ls =
    Lottery_sched.create ~mode:Lottery_sched.Tree_mode ~shards:2
      ~rng:(Rng.create ~seed:5 ())
      ()
  in
  Lottery_sched.set_migration_enabled ls false;
  Lottery_sched.set_placement_hook ls (Some (fun _ -> 0));
  (ls, Lottery_sched.sched ls)

let flush s = ignore (s.Types.select ~cpu:1)

(* The mass a flush writing in [order] leaves, [after] giving each
   thread's new weight. *)
let replay ls order after =
  List.fold_left
    (fun mass th ->
      let w0 = Option.get (Lottery_sched.draw_weight ls th) in
      mass +. (List.assq th after -. w0))
    (Lottery_sched.shard_ticket_mass ls 0)
    order

(* Runs [mutate], then checks that the next flush writes in [expected]
   order — and that the mass tells each [wrong] order apart. *)
let check_order ls s ~expected ~wrong mutate =
  mutate ();
  let after = List.map (fun th -> (th, Lottery_sched.thread_value ls th)) expected in
  let bits order = Int64.bits_of_float (replay ls order after) in
  List.iter
    (fun order ->
      checkb "a wrong order moves the mass" true (bits order <> bits expected))
    wrong;
  let want = bits expected in
  flush s;
  check Alcotest.int64 "the flush wrote in drain order" want
    (Int64.bits_of_float (Lottery_sched.shard_ticket_mass ls 0))

let spawn_funded ls s id funding =
  let th = bare_thread id in
  s.Types.attach th;
  List.iter
    (fun (from, amount) -> ignore (Lottery_sched.fund_thread ls th ~amount ~from))
    funding;
  th

let test_flush_drain_order () =
  let ls, s = pinned_lottery () in
  let base = Lottery_sched.base_currency ls in
  let c = Lottery_sched.make_currency ls "c" and d = Lottery_sched.make_currency ls "d" in
  let tc = Lottery_sched.fund_currency ls ~target:c ~amount:1000 ~from:base in
  let td = Lottery_sched.fund_currency ls ~target:d ~amount:1000 ~from:base in
  let a = spawn_funded ls s 1 [ (c, 3); (d, 5) ] in
  let b = spawn_funded ls s 2 [ (c, 7) ] in
  let e = spawn_funded ls s 3 [ (c, 11) ] in
  let f = spawn_funded ls s 4 [ (d, 13) ] in
  flush s;
  (* tc's change flips c's threads newest ticket first (e, b, a); a is read
     again, so td's change flips f and then a, which keeps its first place *)
  check_order ls s ~expected:[ a; b; e; f ]
    ~wrong:[ [ e; b; a; f ] (* flip order *); [ b; e; a; f ] (* latest place *) ]
    (fun () ->
      Lottery_sched.set_ticket_amount ls tc 1234;
      ignore (Lottery_sched.thread_value ls a : float);
      Lottery_sched.set_ticket_amount ls td 777)

let test_flush_skips_recycled_slot () =
  let ls, s = pinned_lottery () in
  let base = Lottery_sched.base_currency ls in
  let c = Lottery_sched.make_currency ls "c" in
  let tc = Lottery_sched.fund_currency ls ~target:c ~amount:1000 ~from:base in
  let x = spawn_funded ls s 1 [ (c, 3) ] in
  let a = spawn_funded ls s 2 [ (c, 7) ] in
  let b = spawn_funded ls s 3 [ (c, 11) ] in
  flush s;
  (* tc's change queues x, a, b; x dies and y, spawned into its slot, is
     funded from c, so y queues after b: x's entry must not re-weigh y
     ahead of a and b *)
  let y = { (bare_thread 9) with Types.tslot = x.Types.tslot } in
  check_order ls s ~expected:[ a; b; y ] ~wrong:[ [ y; a; b ] ] (fun () ->
      Lottery_sched.set_ticket_amount ls tc 1234;
      s.Types.detach x;
      s.Types.attach y;
      ignore (Lottery_sched.fund_thread ls y ~amount:2 ~from:c))

(* Conservation under random workloads: whatever mix of computing,
   sleeping, yielding and exiting threads a scheduler faces, consumed CPU
   plus idle time must exactly cover the horizon, and the lottery's funding
   graph must stay structurally sound. *)
let qcheck_conservation =
  QCheck.Test.make ~name:"cpu + idle = horizon for every scheduler" ~count:40
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, which) ->
      let sched =
        match which with
        | 0 ->
            let rng = Rng.create ~seed:(seed + 1) () in
            Lottery_sched.sched (Lottery_sched.create ~rng ())
        | 1 -> Round_robin.sched (Round_robin.create ())
        | 2 -> Decay_usage.sched (Decay_usage.create ())
        | _ -> Stride_sched.sched (Stride_sched.create ())
      in
      let k = Kernel.create ~quantum:(Time.ms 10) ~sched () in
      let wl = Rng.create ~algo:Splitmix64 ~seed () in
      let n = 2 + Rng.int_below wl 6 in
      let threads =
        List.init n (fun i ->
            Kernel.spawn k
              ~name:(Printf.sprintf "t%d" i)
              (fun () ->
                let steps = 1 + Rng.int_below wl 30 in
                for _ = 1 to steps do
                  match Rng.int_below wl 4 with
                  | 0 -> Api.compute (Time.ms (1 + Rng.int_below wl 50))
                  | 1 -> Api.sleep (Time.ms (Rng.int_below wl 30))
                  | 2 -> Api.yield ()
                  | _ -> Api.compute (Time.us (1 + Rng.int_below wl 500))
                done))
      in
      let horizon = Time.seconds 2 in
      let summary = Kernel.run k ~until:horizon in
      let cpu = List.fold_left (fun acc th -> acc + Kernel.cpu_time th) 0 threads in
      Kernel.failures k = [] && cpu + summary.idle_ticks = summary.ended_at)

let qcheck_lottery_invariants_under_load =
  QCheck.Test.make ~name:"funding invariants survive random rpc/mutex traffic"
    ~count:25 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 7) () in
      let ls = Lottery_sched.create ~rng () in
      let k = Kernel.create ~quantum:(Time.ms 10) ~sched:(Lottery_sched.sched ls) () in
      let wl = Rng.create ~algo:Splitmix64 ~seed () in
      let port = Kernel.create_port k ~name:"svc" in
      let m = Kernel.create_mutex k ~policy:Types.Lottery_wake "m" in
      ignore
        (Kernel.spawn k ~name:"server" (fun () ->
             while true do
               let msg = Api.receive port in
               Api.compute (Time.ms 3);
               Api.reply msg ""
             done));
      for i = 1 to 2 + Rng.int_below wl 4 do
        let th =
          Kernel.spawn k ~name:(Printf.sprintf "c%d" i) (fun () ->
              for _ = 1 to 20 do
                match Rng.int_below wl 3 with
                | 0 -> ignore (Api.rpc port "q")
                | 1 -> Api.with_lock m (fun () -> Api.compute (Time.ms 2))
                | _ -> Api.compute (Time.ms (1 + Rng.int_below wl 10))
              done)
        in
        ignore
          (Lottery_sched.fund_thread ls th
             ~amount:(10 + Rng.int_below wl 500)
             ~from:(Lottery_sched.base_currency ls))
      done;
      ignore (Kernel.run k ~until:(Time.seconds 30));
      Funding.check_invariants (Lottery_sched.funding ls);
      Kernel.failures k = [])

(* --- reclamation and the flat decision tables ---------------------------- *)

(* A reaped thread must be collectable whatever the scheduler's mode: no
   draw, fallback ring or pending buffer may keep it reachable. Short
   funded threads run to exit beside one funded spinner, so every decision
   is a lottery and no fallback pop ever runs. Each draw structure keeps
   the first client it ever held as the filler of vacated cells, so at most
   one departed thread per draw (one per shard) may survive. *)
let reaped_threads_collectable ~mode ~shards () =
  let rng = Rng.create ~seed:31 () in
  let ls = Lottery_sched.create ~mode ~shards ~rng () in
  let k =
    Kernel.create ~cpus:(max 1 shards) ~sched:(Lottery_sched.sched ls) ()
  in
  let base = Lottery_sched.base_currency ls in
  let fund th = ignore (Lottery_sched.fund_thread ls th ~amount:100 ~from:base) in
  fund (spin k "spinner");
  let n = 2000 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let th = Kernel.spawn k ~name:"short" (fun () -> Api.compute (Time.ms 1)) in
    fund th;
    Weak.set w i (Some th)
  done;
  ignore (Kernel.run k ~until:(Time.seconds 30));
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr alive
  done;
  (* the kernel and the scheduler stay live across the collection *)
  checki "only the spinner is left" 1 (List.length (Kernel.threads k));
  checki "only the spinner is runnable" 1 (Lottery_sched.runnable_count ls);
  if !alive > max 1 shards then
    Alcotest.failf "%d of %d reaped threads still reachable" !alive n

(* Random programs against the quiescent [account] check: whatever mix of
   spawns, funding changes, ticket destruction, kills and compute/sleep/
   yield (compensation) the scheduler sees, every thread in its draw must
   weigh exactly [thread_value] after every decision, and the flat-table
   audit must stay clean. *)
type prog_op =
  | Spawn of int (* body seed *)
  | Fund of int * int * int (* thread, source (0 = base), amount *)
  | Set_amount of int * int (* ticket, amount *)
  | Destroy of int (* ticket *)
  | Kill of int (* thread *)
  | Pass

let prog_op_to_string = function
  | Spawn s -> Printf.sprintf "spawn %d" s
  | Fund (a, b, c) -> Printf.sprintf "fund t%d from %d by %d" a b c
  | Set_amount (a, b) -> Printf.sprintf "amount k%d := %d" a b
  | Destroy a -> Printf.sprintf "destroy k%d" a
  | Kill a -> Printf.sprintf "kill t%d" a
  | Pass -> "pass"

let prog_arb =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map (fun s -> Spawn s) small_nat);
        ( 4,
          map3 (fun a b c -> Fund (a, b, c)) small_nat (int_bound 2)
            (int_range 1 500) );
        (2, map2 (fun a b -> Set_amount (a, b)) small_nat (int_range 0 500));
        (1, map (fun a -> Destroy a) small_nat);
        (1, map (fun a -> Kill a) small_nat);
        (3, return Pass);
      ]
  in
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %d: %s" seed
        (String.concat "; " (List.map prog_op_to_string ops)))
    (pair small_nat (list_size (int_range 5 60) op))

let run_program ~mode ~shards (seed, ops) =
  let rng = Rng.create ~seed:(seed + 1) () in
  let ls = Lottery_sched.create ~mode ~shards ~rng () in
  let inner = Lottery_sched.sched ls in
  let problems = ref [] in
  let kref = ref None in
  let audit () =
    match !kref with
    | None -> ()
    | Some k ->
        List.iter
          (fun th ->
            match Lottery_sched.draw_weight ls th with
            | Some w ->
                let v = Lottery_sched.thread_value ls th in
                if Int64.bits_of_float w <> Int64.bits_of_float v then
                  problems :=
                    Printf.sprintf "%s weighs %h, its value is %h"
                      th.Types.name w v
                    :: !problems
            | None -> ())
          (Kernel.threads k);
        problems :=
          Lottery_sched.check_funding_coherence ls (Kernel.threads k)
          @ Lottery_sched.check_sharding ls
          @ !problems
  in
  let sched =
    {
      inner with
      Types.select =
        (fun ~cpu ->
          let r = inner.Types.select ~cpu in
          audit ();
          r);
    }
  in
  let k = Kernel.create ~quantum:(Time.ms 10) ~cpus:(max 1 shards) ~sched () in
  kref := Some k;
  let base = Lottery_sched.base_currency ls in
  let users =
    Array.init 2 (fun i ->
        let c = Lottery_sched.make_currency ls (Printf.sprintf "user%d" i) in
        ignore
          (Lottery_sched.fund_currency ls ~target:c ~amount:(100 * (i + 1))
             ~from:base);
        c)
  in
  let tickets = ref [||] in
  let nth arr i = arr.(i mod Array.length arr) in
  let spawn s =
    let wl = Rng.create ~algo:Splitmix64 ~seed:s () in
    Kernel.spawn k ~name:(Printf.sprintf "p%d" s) (fun () ->
        for _ = 1 to 5 + Rng.int_below wl 20 do
          match Rng.int_below wl 3 with
          | 0 -> Api.compute (Time.us (100 + Rng.int_below wl 15_000))
          | 1 -> Api.sleep (Time.ms (Rng.int_below wl 20))
          | _ -> Api.yield ()
        done)
  in
  let step = function
    | Spawn s -> ignore (spawn s)
    | Fund (a, src, amount) -> (
        match Kernel.threads k with
        | [] -> ()
        | ths ->
            let th = nth (Array.of_list ths) a in
            let from = if src = 0 then base else users.(src - 1) in
            let tk = Lottery_sched.fund_thread ls th ~amount ~from in
            tickets := Array.append !tickets [| tk |])
    | Set_amount (i, amount) ->
        if Array.length !tickets > 0 then begin
          let tk = nth !tickets i in
          if Funding.ticket_slot tk >= 0 then
            Lottery_sched.set_ticket_amount ls tk amount
        end
    | Destroy i ->
        if Array.length !tickets > 0 then begin
          let tk = nth !tickets i in
          if Funding.ticket_slot tk >= 0 then Lottery_sched.destroy_ticket ls tk
        end
    | Kill a -> (
        match Kernel.threads k with
        | [] -> ()
        | ths -> Kernel.kill k (nth (Array.of_list ths) a))
    | Pass -> ()
  in
  let todo = ref ops in
  Kernel.set_pre_select k
    (Some
       (fun () ->
         match !todo with
         | [] -> ()
         | op :: rest ->
             todo := rest;
             step op));
  ignore (spawn seed);
  ignore (Kernel.run k ~until:(Time.seconds 2));
  match !problems with
  | [] -> true
  | p :: _ -> QCheck.Test.fail_reportf "%s" p

let qcheck_decision_tables =
  List.map
    (fun (label, mode, shards) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "draw weights equal thread values (%s)" label)
        ~count:30 prog_arb (run_program ~mode ~shards))
    [
      ("list", Lottery_sched.List_mode, 0);
      ("tree", Lottery_sched.Tree_mode, 0);
      ("list, 4 shards", Lottery_sched.List_mode, 4);
      ("tree, 4 shards", Lottery_sched.Tree_mode, 4);
    ]

let () =
  Alcotest.run "sched"
    [
      ( "lottery-shares",
        [
          Alcotest.test_case "3:2:1 proportional (list)" `Quick
            (proportional_share Lottery_sched.List_mode);
          Alcotest.test_case "3:2:1 proportional (tree)" `Quick
            (proportional_share Lottery_sched.Tree_mode);
          Alcotest.test_case "list and tree agree" `Quick test_list_tree_same_distribution;
          Alcotest.test_case "zero tickets starve (by design)" `Quick
            test_unfunded_fallback;
          Alcotest.test_case "fallback when nothing funded" `Quick
            test_fallback_runs_when_nothing_funded;
          Alcotest.test_case "nonzero tickets never starve" `Quick
            test_starvation_free_with_tickets;
          Alcotest.test_case "inflation shifts share at runtime" `Quick
            test_dynamic_inflation_shifts_share;
          Alcotest.test_case "currencies isolate users" `Quick test_currency_isolation;
          Alcotest.test_case "thread value & detach cleanup" `Quick
            test_thread_value_and_detach_cleanup;
        ] );
      ( "lottery-transfers",
        [
          Alcotest.test_case "rpc transfer funds server" `Quick
            test_rpc_transfer_funds_server;
          Alcotest.test_case "transitive chains" `Quick test_transfer_chain_transitive;
          Alcotest.test_case "divided transfers split equally" `Quick
            test_divided_transfer_splits_equally;
          Alcotest.test_case "divided transfers re-concentrate" `Quick
            test_divided_transfer_reconcentrates;
        ] );
      ( "lottery-compensation",
        [
          Alcotest.test_case "restores 1:1 for fractional quanta" `Quick
            test_compensation_restores_share;
        ] );
      ( "lottery-mutex",
        [
          Alcotest.test_case "funded waiters preferred" `Quick
            test_lottery_mutex_prefers_funded_waiters;
          Alcotest.test_case "lottery semaphore prefers funded" `Quick
            test_lottery_semaphore_prefers_funded;
          Alcotest.test_case "lottery condition prefers funded" `Quick
            test_lottery_condition_wakes_funded_first;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "round-robin equal split" `Quick test_round_robin_equal_split;
          Alcotest.test_case "decay-usage equalizes" `Quick test_decay_usage_equalizes;
          Alcotest.test_case "decay-usage favors fresh threads" `Quick
            test_decay_usage_favors_fresh_threads;
          Alcotest.test_case "stride near-exact shares" `Quick
            test_stride_exact_proportionality;
          Alcotest.test_case "stride ticket change" `Quick test_stride_ticket_change;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "draw counters and modes" `Quick test_lottery_introspection;
          Alcotest.test_case "block/wake is O(affected), not a full refresh" `Quick
            test_scoped_updates_on_block_wake;
          Alcotest.test_case "block/wake skips idle siblings' edges" `Quick
            test_block_wake_skips_idle_siblings;
          Alcotest.test_case "flush writes in drain order" `Quick
            test_flush_drain_order;
          Alcotest.test_case "a recycled slot drains at its new place" `Quick
            test_flush_skips_recycled_slot;
          Alcotest.test_case "baseline accessors" `Quick test_baseline_accessors;
          Alcotest.test_case "coherence flags a runnable donor" `Quick
            test_coherence_flags_runnable_donor;
          Alcotest.test_case "coherence flags a dead target" `Quick
            test_coherence_flags_dead_target;
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "reaped threads collectable (list)" `Quick
            (reaped_threads_collectable ~mode:Lottery_sched.List_mode ~shards:0);
          Alcotest.test_case "reaped threads collectable (tree)" `Quick
            (reaped_threads_collectable ~mode:Lottery_sched.Tree_mode ~shards:0);
          Alcotest.test_case "reaped threads collectable (2 shards)" `Quick
            (reaped_threads_collectable ~mode:Lottery_sched.Tree_mode ~shards:2);
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          ([ qcheck_conservation; qcheck_lottery_invariants_under_load ]
          @ qcheck_decision_tables) );
    ]
