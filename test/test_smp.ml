(* Multi-CPU kernel and sharded lottery scheduling: shard-tree unit tests,
   zero-alloc readd, N-CPU pinned-placement equivalence with the 1-CPU
   schedule, per-shard and aggregate fairness, deterministic replay, and
   the sharding audits. *)

open Core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let checkf = check (Alcotest.float 1e-9)

(* --- shard tree -------------------------------------------------------------- *)

let test_shard_tree_basic () =
  let t = Shard_tree.create ~shards:4 in
  checki "shards" 4 (Shard_tree.shards t);
  checkf "empty total" 0. (Shard_tree.total t);
  Shard_tree.set t 0 3.;
  Shard_tree.set t 1 1.;
  Shard_tree.set t 3 2.;
  checkf "total" 6. (Shard_tree.total t);
  checkf "get 0" 3. (Shard_tree.get t 0);
  checkf "get 2" 0. (Shard_tree.get t 2);
  Shard_tree.set t 0 1.;
  checkf "total after rewrite" 4. (Shard_tree.total t);
  checki "max" 3 (Shard_tree.max_shard t);
  checki "min (lowest id wins ties)" 2 (Shard_tree.min_shard t)

(* [pick] takes the 53 raw bits [Rng.bits53] returns; [bits_of u] is the
   draw whose deviate is [u] *)
let bits_of u = int_of_float (u *. float_of_int (1 lsl 53))

let test_shard_tree_pick () =
  let t = Shard_tree.create ~shards:3 in
  checki "pick on empty" (-1) (Shard_tree.pick t ~bits:(bits_of 0.5));
  Shard_tree.set t 0 1.;
  Shard_tree.set t 1 2.;
  Shard_tree.set t 2 1.;
  (* cumulative masses: [0,1) -> 0, [1,3) -> 1, [3,4) -> 2 *)
  checki "low u" 0 (Shard_tree.pick t ~bits:(bits_of 0.1));
  checki "middle u" 1 (Shard_tree.pick t ~bits:(bits_of 0.5));
  checki "high u" 2 (Shard_tree.pick t ~bits:(bits_of 0.99));
  (* zero-mass shards are never picked, even at the boundary *)
  Shard_tree.set t 1 0.;
  for i = 0 to 99 do
    let bits = bits_of (float_of_int i /. 100.) in
    checkb "never the empty shard" true (Shard_tree.pick t ~bits <> 1)
  done;
  (* the top edge, bits = 2^53 - 1: the last shard that holds mass, never
     an empty one past it *)
  let top = (1 lsl 53) - 1 in
  checki "top edge" 2 (Shard_tree.pick t ~bits:top);
  Shard_tree.set t 1 2.;
  Shard_tree.set t 2 0.;
  checki "top edge, last shard empty" 1 (Shard_tree.pick t ~bits:top)

let test_shard_tree_non_power_of_two () =
  let t = Shard_tree.create ~shards:3 in
  Shard_tree.set t 2 5.;
  checkf "last real leaf" 5. (Shard_tree.get t 2);
  checkf "total ignores padding" 5. (Shard_tree.total t);
  checki "pick lands on it" 2 (Shard_tree.pick t ~bits:(bits_of 0.5))

(* --- readd: the zero-alloc migration primitive ------------------------------- *)

let test_readd_roundtrip () =
  let modes =
    [ ("list", Draw.List); ("tree", Draw.Tree) ]
  in
  List.iter
    (fun (name, mode) ->
      let d = Draw.of_mode mode in
      let a = Draw.add d ~client:"a" ~weight:1. in
      let b = Draw.add d ~client:"b" ~weight:2. in
      Draw.remove d b;
      checkb (name ^ ": removed not mem") false (Draw.mem d b);
      checkb (name ^ ": live still mem") true (Draw.mem d a);
      Draw.readd d b ~weight:3.;
      checkb (name ^ ": readded mem") true (Draw.mem d b);
      checki (name ^ ": size back to 2") 2 (Draw.size d);
      checkf (name ^ ": total reflects new weight") 4. (Draw.total d);
      Alcotest.check_raises
        (name ^ ": readd of a live handle rejected")
        (Invalid_argument
           (match mode with
           | Draw.List -> "List_lottery.readd: handle still live"
           | Draw.Tree -> "Tree_lottery.readd: handle still live"))
        (fun () -> Draw.readd d b ~weight:1.))
    modes

let test_readd_cross_structure () =
  (* the actual migration pattern: remove from one shard draw, readd into
     another, with the same handle record *)
  let src = Draw.of_mode Draw.Tree and dst = Draw.of_mode Draw.Tree in
  let h = Draw.add src ~client:42 ~weight:5. in
  Draw.remove src h;
  Draw.readd dst h ~weight:5.;
  checkb "gone from src" false (Draw.mem src h);
  checkb "live in dst" true (Draw.mem dst h);
  checki "dst sees it" 42 (Draw.client h);
  let rng = Rng.create ~seed:7 () in
  checki "drawable in dst" 42
    (match Draw.draw_client dst rng with Some c -> c | None -> -1)

(* --- multi-CPU kernel + sharded scheduler ------------------------------------ *)

let sharded_kernel = Fixtures.lottery_kernel ~mode:Tree_mode
let spin = Fixtures.spin

let test_smp_throughput_and_shares () =
  let k, ls = sharded_kernel ~shards:4 ~cpus:4 ~seed:42 () in
  let base = Lottery_sched.base_currency ls in
  let threads =
    List.init 32 (fun i ->
        let th = spin k (Printf.sprintf "t%02d" i) in
        ignore
          (Lottery_sched.fund_thread ls th ~amount:(100 * (1 + (i mod 4))) ~from:base);
        th)
  in
  let horizon = Time.seconds 100 in
  ignore (Kernel.run k ~until:horizon);
  let total = List.fold_left (fun a th -> a + Kernel.cpu_time th) 0 threads in
  checki "4 CPUs deliver 4x virtual time" (4 * horizon) total;
  for c = 0 to 3 do
    checki "every cpu reached the horizon" horizon (Kernel.cpu_clock k c)
  done;
  checkb "rebalancing happened" true (Lottery_sched.migrations ls > 0);
  check (Alcotest.list Alcotest.string) "sharding audit clean" []
    (Lottery_sched.check_sharding ls);
  check (Alcotest.list Alcotest.string) "kernel audit clean" []
    (Kernel.check_invariants k);
  (* aggregate proportional share across all 4 CPUs *)
  let observed =
    Array.of_list (List.map (fun th -> Kernel.cpu_time th / Time.ms 100) threads)
  in
  let weights =
    Array.init 32 (fun i -> float_of_int (100 * (1 + (i mod 4))))
  in
  checkb "aggregate chi-square (p >= 0.01)" true
    (Chi_square.goodness_of_fit ~alpha:0.01 ~observed ~weights ())

let test_smp_per_shard_fairness_churny () =
  (* Pin threads round-robin (migration off) so shard membership is stable.
     The measured threads are pure spinners — a thread asleep does not
     compete, so mixing sleeps into the measured set would legitimately
     skew service away from tickets (compensation covers partial quanta,
     not absence). Dedicated lightly-funded churners beside them keep every
     shard's draw membership turning over block/wake constantly. *)
  let shards = 4 in
  let k, ls =
    sharded_kernel
      ~placement:(fun th -> Kernel.thread_id th mod shards)
      ~migration:false ~shards ~cpus:shards ~seed:1234 ()
  in
  let base = Lottery_sched.base_currency ls in
  let per_shard = 6 in
  (* each shard gets the same ticket multiset {100;200;300} x2 *)
  let threads =
    List.init (shards * per_shard) (fun i ->
        let amount = 100 * (1 + (i mod 3)) in
        let th = spin k (Printf.sprintf "s%02d" i) in
        ignore (Lottery_sched.fund_thread ls th ~amount ~from:base);
        (th, amount))
  in
  for i = 0 to (2 * shards) - 1 do
    let th =
      Kernel.spawn k ~name:(Printf.sprintf "churn%d" i) (fun () ->
          while true do
            Api.compute (Time.ms 10);
            Api.sleep (Time.ms 30)
          done)
    in
    ignore (Lottery_sched.fund_thread ls th ~amount:50 ~from:base)
  done;
  ignore (Kernel.run k ~until:(Time.seconds 600));
  checki "no migrations when pinned" 0 (Lottery_sched.migrations ls);
  check (Alcotest.list Alcotest.string) "sharding audit clean" []
    (Lottery_sched.check_sharding ls);
  let fairness msg group =
    let observed =
      Array.of_list
        (List.map (fun (th, _) -> Kernel.cpu_time th / Time.ms 100) group)
    in
    let weights =
      Array.of_list (List.map (fun (_, a) -> float_of_int a) group)
    in
    checkb msg true (Chi_square.goodness_of_fit ~alpha:0.01 ~observed ~weights ())
  in
  for s = 0 to shards - 1 do
    let group =
      List.filter (fun (th, _) -> Lottery_sched.shard_of ls th = s) threads
    in
    checki (Printf.sprintf "shard %d population" s) per_shard (List.length group);
    fairness (Printf.sprintf "shard %d chi-square (p >= 0.01)" s) group
  done;
  fairness "aggregate chi-square (p >= 0.01)" threads

(* every kernel event as a "time line" row, in the one-line format of
   {!Obs.Event.render} *)
let trace_into k =
  let buf = Buffer.create 4096 in
  ignore
    (Obs.Bus.subscribe (Kernel.bus k) (fun t ev ->
         Buffer.add_string buf (Printf.sprintf "%d %s\n" t (Obs.Event.render ev))));
  buf

(* [pin] runs on [cpus] CPUs with one shard each and every thread pinned
   to shard 0, migration off; otherwise the scheduler is [create]'s default
   on one CPU, the historical single-CPU path. *)
let trace_of ~cpus ~pin ~seed ~horizon =
  let k, ls =
    if pin then
      sharded_kernel
        ~placement:(fun _ -> 0)
        ~migration:false ~shards:cpus ~cpus ~seed ()
    else sharded_kernel ~cpus ~seed ()
  in
  let base = Lottery_sched.base_currency ls in
  let buf = trace_into k in
  List.iteri
    (fun i amount ->
      let th = spin k (Printf.sprintf "w%d" i) in
      ignore (Lottery_sched.fund_thread ls th ~amount ~from:base))
    [ 400; 300; 200; 100; 50 ];
  ignore (Kernel.run k ~until:horizon);
  Buffer.contents buf

let test_pinned_n_cpu_equals_1_cpu () =
  (* With every thread pinned to shard 0 and migration off, the extra CPUs
     only ever select on empty shards (consuming no randomness), so an
     N-CPU run must replay the 1-CPU schedule byte for byte. *)
  let horizon = Time.seconds 30 in
  let one = trace_of ~cpus:1 ~pin:false ~seed:77 ~horizon in
  checkb "trace nonempty" true (String.length one > 0);
  List.iter
    (fun cpus ->
      let n = trace_of ~cpus ~pin:true ~seed:77 ~horizon in
      checks (Printf.sprintf "%d-CPU pinned trace identical" cpus) one n)
    [ 2; 4 ]

let test_pinned_equivalence_qcheck =
  (* property form across seeds and CPU counts *)
  QCheck.Test.make ~name:"pinned N-CPU schedule == 1-CPU schedule" ~count:20
    QCheck.(pair (int_range 1 10_000) (int_range 2 6))
    (fun (seed, cpus) ->
      let horizon = Time.seconds 5 in
      trace_of ~cpus:1 ~pin:false ~seed ~horizon
      = trace_of ~cpus ~pin:true ~seed ~horizon)

let test_sharded_determinism () =
  (* same seed, same config, migration and stealing on -> byte-identical *)
  let run () =
    let k, ls = sharded_kernel ~shards:4 ~cpus:4 ~seed:2024 () in
    let base = Lottery_sched.base_currency ls in
    let buf = trace_into k in
    for i = 0 to 19 do
      let th =
        Kernel.spawn k ~name:(Printf.sprintf "d%02d" i) (fun () ->
            while true do
              Api.compute (Time.ms 3);
              if i mod 3 = 0 then Api.sleep (Time.ms 20)
            done)
      in
      ignore (Lottery_sched.fund_thread ls th ~amount:(50 + (13 * i)) ~from:base)
    done;
    ignore (Kernel.run k ~until:(Time.seconds 60));
    (Buffer.contents buf, Lottery_sched.migrations ls, Lottery_sched.steals ls)
  in
  let t1, m1, s1 = run () in
  let t2, m2, s2 = run () in
  checkb "trace nonempty" true (String.length t1 > 0);
  checks "byte-identical traces" t1 t2;
  checki "migration counts agree" m1 m2;
  checki "steal counts agree" s1 s2

let test_force_migrate_and_steal () =
  let k, ls =
    sharded_kernel
      ~placement:(fun _ -> 0)
      ~migration:false ~shards:2 ~cpus:2 ~seed:5 ()
  in
  let base = Lottery_sched.base_currency ls in
  let a = spin k "a" and b = spin k "b" in
  ignore (Lottery_sched.fund_thread ls a ~amount:100 ~from:base);
  ignore (Lottery_sched.fund_thread ls b ~amount:100 ~from:base);
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checki "both pinned on shard 0" 0
    (Lottery_sched.shard_of ls a + Lottery_sched.shard_of ls b);
  (* CPU 1 found nothing and stealing was off *)
  checki "no steals while disabled" 0 (Lottery_sched.steals ls);
  checkb "cpu 1 idled" true
    (Kernel.cpu_time a + Kernel.cpu_time b < 2 * Time.seconds 1);
  Lottery_sched.force_migrate ls b ~dst:1;
  checki "b moved" 1 (Lottery_sched.shard_of ls b);
  checki "move counted" 1 (Lottery_sched.migrations ls);
  check (Alcotest.list Alcotest.string) "audit clean after force_migrate" []
    (Lottery_sched.check_sharding ls);
  let t0a = Kernel.cpu_time a and t0b = Kernel.cpu_time b in
  ignore (Kernel.run k ~until:(Time.seconds 2));
  checki "full utilization once spread" (2 * Time.seconds 1)
    (Kernel.cpu_time a - t0a + (Kernel.cpu_time b - t0b));
  (* with b gone only one thread remains: a second CPU cannot conjure
     parallelism out of it (it is always dispatched before the empty CPU
     gets to steal), so exactly one CPU's worth of progress is made *)
  Lottery_sched.set_migration_enabled ls true;
  Kernel.kill k b;
  let t1a = Kernel.cpu_time a in
  ignore (Kernel.run k ~until:(Time.seconds 3));
  checki "a lone thread uses exactly one CPU" (Time.seconds 1)
    (Kernel.cpu_time a - t1a);
  check (Alcotest.list Alcotest.string) "audit clean at the end" []
    (Lottery_sched.check_sharding ls)

let fake_thread id =
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

let test_steal_on_empty_shard () =
  (* Drive the sched callbacks directly: one funded thread pinned to shard
     0, and a select on CPU 1. Rebalancing refuses the move (a lone thread
     may not overshoot), so the empty CPU must fall back to stealing. *)
  let rng = Rng.create ~seed:99 () in
  let ls = Lottery_sched.create ~mode:Tree_mode ~shards:2 ~rng () in
  Lottery_sched.set_placement_hook ls (Some (fun _ -> 0));
  let s = Lottery_sched.sched ls in
  let a = fake_thread 0 in
  s.Types.attach a;
  ignore
    (Lottery_sched.fund_thread ls a ~amount:100
       ~from:(Lottery_sched.base_currency ls));
  checki "placed on shard 0" 0 (Lottery_sched.shard_of ls a);
  (match s.Types.select ~cpu:1 with
  | Some th -> checks "cpu 1 stole the thread" "t0" th.Types.name
  | None -> Alcotest.fail "cpu 1 idled instead of stealing");
  checki "counted as a steal" 1 (Lottery_sched.steals ls);
  checki "now on shard 1" 1 (Lottery_sched.shard_of ls a);
  check (Alcotest.list Alcotest.string) "audit clean after steal" []
    (Lottery_sched.check_sharding ls);
  (* the slice ends; the thread goes back into its new shard's draw *)
  s.Types.account a ~used:100 ~quantum:100 ~blocked:false;
  (match s.Types.select ~cpu:1 with
  | Some th -> checks "cpu 1 keeps it locally" "t0" th.Types.name
  | None -> Alcotest.fail "shard 1 lost the thread");
  checki "no second steal needed" 1 (Lottery_sched.steals ls)

(* One shard is the plain lottery: no other CPU can draw the running
   thread, so the winner stays in its draw through its slice, and the
   accessors that need per-shard mass or a second shard refuse. *)
let test_one_shard_keeps_winner_in_draw () =
  let rng = Rng.create ~seed:7 () in
  let ls = Lottery_sched.create ~mode:Tree_mode ~rng () in
  let s = Lottery_sched.sched ls in
  let a = fake_thread 0 in
  s.Types.attach a;
  ignore
    (Lottery_sched.fund_thread ls a ~amount:100
       ~from:(Lottery_sched.base_currency ls));
  checki "one shard" 1 (Lottery_sched.shards ls);
  checki "one cpu served" 1 s.Types.max_cpus;
  (match s.Types.select ~cpu:0 with
  | Some th -> checks "the funded thread wins" "t0" th.Types.name
  | None -> Alcotest.fail "nothing selected");
  checkb "winner still in its draw" true (Lottery_sched.draw_weight ls a <> None);
  checki "winner still runnable in the draw" 1 (Lottery_sched.runnable_count ls);
  checki "placed on shard 0" 0 (Lottery_sched.shard_of ls a);
  s.Types.account a ~used:100 ~quantum:100 ~blocked:false;
  checki "no migration" 0 (Lottery_sched.migrations ls);
  check (Alcotest.list Alcotest.string) "audit clean" []
    (Lottery_sched.check_sharding ls);
  Alcotest.check_raises "no shard mass on one shard"
    (Invalid_argument "Lottery_sched.shard_ticket_mass: bad shard") (fun () ->
      ignore (Lottery_sched.shard_ticket_mass ls 0));
  Alcotest.check_raises "no migration on one shard"
    (Invalid_argument "Lottery_sched.force_migrate: bad shard") (fun () ->
      Lottery_sched.force_migrate ls a ~dst:0)

let test_smp_guards () =
  let rng = Rng.create ~seed:1 () in
  let rr = Round_robin.create () in
  Alcotest.check_raises "non-smp sched rejected on 2 cpus"
    (Invalid_argument "Kernel.create: scheduler round-robin does not support cpus > 1")
    (fun () -> ignore (Kernel.create ~cpus:2 ~sched:(Round_robin.sched rr) ()));
  Alcotest.check_raises "cpus < 1 rejected"
    (Invalid_argument "Kernel.create: cpus < 1")
    (fun () ->
      let ls = Lottery_sched.create ~shards:1 ~rng () in
      ignore (Kernel.create ~cpus:0 ~sched:(Lottery_sched.sched ls) ()));
  List.iter
    (fun (shards, cpus) ->
      Alcotest.check_raises
        (Printf.sprintf "%d shard(s) rejected on %d cpus" shards cpus)
        (Invalid_argument
           (Printf.sprintf
              "Kernel.create: scheduler lottery-list does not support cpus > %d"
              shards))
        (fun () ->
          let ls = Lottery_sched.create ~shards ~rng () in
          ignore (Kernel.create ~cpus ~sched:(Lottery_sched.sched ls) ())))
    [ (2, 4); (1, 2) ];
  let ls = Lottery_sched.create ~shards:2 ~rng () in
  Alcotest.check_raises "force_migrate bad shard"
    (Invalid_argument "Lottery_sched.force_migrate: bad shard")
    (fun () ->
      let k = Kernel.create ~cpus:2 ~sched:(Lottery_sched.sched ls) () in
      let a = spin k "a" in
      ignore (Kernel.run k ~until:(Time.ms 100));
      Lottery_sched.force_migrate ls a ~dst:7)

(* The placement hook's contract: a result outside [0..shards-1] raises
   instead of falling back to a default shard, so a wrong pin in the
   sharded == 1-CPU equivalence tests fails loudly. *)
let test_placement_hook_out_of_range_raises () =
  List.iter
    (fun bad ->
      let k, _ls =
        sharded_kernel ~placement:(fun _ -> bad) ~shards:2 ~cpus:2 ~seed:3 ()
      in
      Alcotest.check_raises
        (Printf.sprintf "placement hook result %d rejected" bad)
        (Invalid_argument "Lottery_sched: placement hook returned a bad shard")
        (fun () ->
          ignore (spin k "a");
          ignore (Kernel.run k ~until:(Time.ms 10))))
    [ -1; 2 ]

let () =
  Alcotest.run "smp"
    [
      ( "shard-tree",
        [
          Alcotest.test_case "set/get/total/min/max" `Quick test_shard_tree_basic;
          Alcotest.test_case "weighted pick" `Quick test_shard_tree_pick;
          Alcotest.test_case "non-power-of-two" `Quick
            test_shard_tree_non_power_of_two;
        ] );
      ( "readd",
        [
          Alcotest.test_case "roundtrip, all backends" `Quick test_readd_roundtrip;
          Alcotest.test_case "cross-structure migration" `Quick
            test_readd_cross_structure;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "4-CPU throughput and shares" `Quick
            test_smp_throughput_and_shares;
          Alcotest.test_case "per-shard fairness, churny" `Slow
            test_smp_per_shard_fairness_churny;
          Alcotest.test_case "pinned N-CPU == 1-CPU" `Quick
            test_pinned_n_cpu_equals_1_cpu;
          QCheck_alcotest.to_alcotest test_pinned_equivalence_qcheck;
          Alcotest.test_case "deterministic replay" `Quick test_sharded_determinism;
          Alcotest.test_case "force_migrate and steal" `Quick
            test_force_migrate_and_steal;
          Alcotest.test_case "steal on an empty shard" `Quick
            test_steal_on_empty_shard;
          Alcotest.test_case "one shard keeps the winner in its draw" `Quick
            test_one_shard_keeps_winner_in_draw;
          Alcotest.test_case "argument guards" `Quick test_smp_guards;
          Alcotest.test_case "out-of-range placement raises" `Quick
            test_placement_hook_out_of_range_raises;
        ] );
    ]
