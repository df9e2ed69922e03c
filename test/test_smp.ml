(* Multi-CPU kernel and sharded lottery scheduling: zero-alloc readd,
   the derived shard mass, N-CPU pinned-placement equivalence with the 1-CPU
   schedule, per-shard and aggregate fairness, deterministic replay, and
   the sharding audits. *)

open Core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let checkf = check (Alcotest.float 1e-9)

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

(* --- the derived shard mass ----------------------------------------------- *)

(* A shard's mass is derived where it is read: its draw's total plus the
   weights of the threads dispatched from it. The property drives the
   scheduler record as the kernel does — at most one dispatched thread per
   CPU, accounted before its CPU selects again; a thread that blocks
   mid-slice is accounted at once — through random attach, ready,
   unready, select, account, kill, force_migrate and set_ticket_amount
   steps. After every step the sharding audit is clean and every shard's
   mass equals a model: the draw weights of its threads in their draw
   plus the weight each dispatched thread won at. *)
let mass_model_holds (shards, tree, ops) =
  let mode = if tree then Lottery_sched.Tree_mode else Lottery_sched.List_mode in
  let ls = Lottery_sched.create ~mode ~shards ~rng:(Rng.create ~seed:11 ()) () in
  let s = Lottery_sched.sched ls in
  let base = Lottery_sched.base_currency ls in
  let curs =
    Array.init 2 (fun i -> Lottery_sched.make_currency ls (Printf.sprintf "c%d" i))
  in
  let cur_tickets =
    Array.map
      (fun c -> Lottery_sched.fund_currency ls ~target:c ~amount:1000 ~from:base)
      curs
  in
  let n = 8 in
  let ths = Array.init n fake_thread in
  Array.iter (fun th -> th.Types.state <- Types.Blocked) ths;
  let attached = Array.make n false and killed = Array.make n false in
  let tickets = Array.make n None in
  let running = Array.make shards None in
  let won = Array.make n 0. in
  let live i = attached.(i) && not killed.(i) in
  let holds th = function Some r -> r == th | None -> false in
  let off_cpu th =
    Array.iteri (fun c r -> if holds th r then running.(c) <- None) running
  in
  let on_cpu th = Array.exists (holds th) running in
  let step (kind, a, b) =
    let i = a mod n in
    let th = ths.(i) in
    match kind with
    | 0 when not (attached.(i) || killed.(i)) ->
        attached.(i) <- true;
        th.Types.state <- Types.Runnable;
        s.Types.attach th;
        tickets.(i) <-
          Some (Lottery_sched.fund_thread ls th ~amount:(b mod 100) ~from:curs.(b mod 2))
    | 1 when live i && th.Types.state = Types.Blocked ->
        th.Types.state <- Types.Runnable;
        s.Types.ready th
    | 2 when live i && th.Types.state = Types.Runnable ->
        th.Types.state <- Types.Blocked;
        s.Types.unready th;
        if on_cpu th then begin
          th.Types.compensate <- 1. +. float_of_int (b mod 4);
          s.Types.account th ~used:1 ~quantum:10 ~blocked:true;
          off_cpu th
        end
    | 3 -> (
        let cpu = a mod shards in
        if running.(cpu) = None then
          (* the weight a winner is dispatched at: the value the select's
             flush writes, or its unchanged draw weight *)
          let values =
            List.filter_map
              (fun th ->
                if live th.Types.id && Lottery_sched.draw_weight ls th <> None then
                  Some (th, Lottery_sched.thread_value ls th)
                else None)
              (Array.to_list ths)
          in
          match s.Types.select ~cpu with
          | None -> ()
          | Some th ->
              th.Types.compensate <- 1.;
              running.(cpu) <- Some th;
              won.(th.Types.id) <- List.assq th values)
    | 4 -> (
        match running.(a mod shards) with
        | Some th ->
            s.Types.account th ~used:10 ~quantum:10 ~blocked:false;
            off_cpu th
        | None -> ())
    | 5 when live i ->
        killed.(i) <- true;
        th.Types.state <- Types.Zombie;
        off_cpu th;
        s.Types.detach th
    | 6 when live i -> Lottery_sched.force_migrate ls th ~dst:(b mod shards)
    | 7 -> (
        let amount = b mod 120 in
        match a mod (n + 2) with
        | j when j >= n -> Lottery_sched.set_ticket_amount ls cur_tickets.(j - n) amount
        | j -> (
            match tickets.(j) with
            | Some t when live j -> Lottery_sched.set_ticket_amount ls t amount
            | _ -> ()))
    | _ -> ()
  in
  let expected k =
    Array.fold_left
      (fun acc th ->
        let i = th.Types.id in
        if live i && Lottery_sched.shard_of ls th = k then
          match Lottery_sched.draw_weight ls th with
          | Some w -> acc +. w
          | None -> if on_cpu th then acc +. won.(i) else acc
        else acc)
      0. ths
  in
  let near x y = abs_float (x -. y) <= 1e-9 *. max 1. (max (abs_float x) (abs_float y)) in
  List.for_all
    (fun op ->
      step op;
      match Lottery_sched.check_sharding ls with
      | _ :: _ as errs -> QCheck.Test.fail_report (String.concat "; " errs)
      | [] ->
          List.for_all
            (fun k ->
              let m = Lottery_sched.shard_ticket_mass ls k and e = expected k in
              near m e
              || QCheck.Test.fail_reportf "shard %d: mass %.17g, model %.17g" k m e)
            (List.init shards Fun.id))
    ops

let test_mass_model =
  QCheck.Test.make ~name:"shard mass = draw total + dispatched weights" ~count:300
    QCheck.(
      triple
        (set_print string_of_int (oneofl [ 2; 3; 4 ]))
        bool
        (list_of_size Gen.(int_range 1 120)
           (triple (int_bound 7) small_nat small_nat)))
    mass_model_holds

(* A steal picks its source shard by mass and never a shard without
   any: shard 1 holds an unfunded thread, shard 3 selects on an empty
   draw, and the rebalance refuses to move a lone heavy thread. Over many
   seeds the steal takes from shards 0 and 2 only, and from both. *)
let test_steal_skips_zero_mass () =
  let from = Array.make 4 0 in
  for seed = 1 to 200 do
    let ls =
      Lottery_sched.create ~mode:Tree_mode ~shards:4 ~rng:(Rng.create ~seed ()) ()
    in
    Lottery_sched.set_placement_hook ls (Some (fun th -> th.Types.id));
    let s = Lottery_sched.sched ls in
    let base = Lottery_sched.base_currency ls in
    let ths = Array.init 3 fake_thread in
    Array.iter s.Types.attach ths;
    ignore (Lottery_sched.fund_thread ls ths.(0) ~amount:100 ~from:base);
    ignore (Lottery_sched.fund_thread ls ths.(2) ~amount:300 ~from:base);
    match s.Types.select ~cpu:3 with
    | None -> Alcotest.fail "cpu 3 idled instead of stealing"
    | Some th ->
        checki "one steal" 1 (Lottery_sched.steals ls);
        checki "the victim moved to shard 3" 3 (Lottery_sched.shard_of ls th);
        checkb "never the zero-mass shard's thread" true (th != ths.(1));
        checki "the zero-mass thread stays" 1 (Lottery_sched.shard_of ls ths.(1));
        from.(th.Types.id) <- from.(th.Types.id) + 1
  done;
  checkb "both massive shards were stolen from" true (from.(0) > 0 && from.(2) > 0);
  checkb "the heavier shard more often" true (from.(2) > from.(0))

(* Placement: a new thread lands on the least-loaded shard, lowest id on
   ties, and a dispatched thread still loads its shard. *)
let test_placement_least_loaded () =
  let ls =
    Lottery_sched.create ~mode:Tree_mode ~shards:3 ~rng:(Rng.create ~seed:4 ()) ()
  in
  Lottery_sched.set_migration_enabled ls false;
  let s = Lottery_sched.sched ls in
  let base = Lottery_sched.base_currency ls in
  (* each thread is funded, then a select and its account write the
     weight into the draw *)
  let spawn id amount =
    let th = fake_thread id in
    s.Types.attach th;
    ignore (Lottery_sched.fund_thread ls th ~amount ~from:base);
    (match s.Types.select ~cpu:(Lottery_sched.shard_of ls th) with
    | Some w -> s.Types.account w ~used:10 ~quantum:10 ~blocked:false
    | None -> ());
    th
  in
  let a = spawn 0 300 in
  checki "all empty: shard 0" 0 (Lottery_sched.shard_of ls a);
  checki "then shard 1" 1 (Lottery_sched.shard_of ls (spawn 1 100));
  checki "then shard 2" 2 (Lottery_sched.shard_of ls (spawn 2 100));
  (* a leaves shard 0's draw for its slice: the draw totals 0, the shard
     still weighs 300 *)
  (match s.Types.select ~cpu:0 with
  | Some th -> checkb "a dispatched" true (th == a)
  | None -> Alcotest.fail "shard 0 drew nothing");
  checkf "a running thread loads its shard" 300. (Lottery_sched.shard_ticket_mass ls 0);
  let d = fake_thread 3 in
  s.Types.attach d;
  checki "tie between 1 and 2: the lower id" 1 (Lottery_sched.shard_of ls d);
  check (Alcotest.list Alcotest.string) "audit clean" []
    (Lottery_sched.check_sharding ls)

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

(* --- weight-write fingerprint ----------------------------------------------- *)

(* A small funding-churn world: 8 currencies x 16 interactive threads on
   4 CPUs and 4 Tree shards. Every 10 ms one currency's backing ticket is
   inflated, a transient thread is spawned and funded from a random
   currency, and the oldest transient beyond 4 is killed. The scheduler
   record is wrapped: after every select, the winner's id and the bits of
   every shard's ticket mass fold into one int. A shard's mass is its
   draw's total plus its dispatched weights, and the Fenwick root adds each
   weight write's delta in write order, so the fold changes when the order
   of the weight writes does, which the schedule alone may not show. *)
let weight_fingerprint () =
  let shards = 4 in
  let rng = Rng.create ~seed:77 () in
  let gen = Rng.split rng in
  let ls = Lottery_sched.create ~mode:Lottery_sched.Tree_mode ~shards ~rng () in
  let inner = Lottery_sched.sched ls in
  let fp = ref 0 in
  let mix x = fp := (!fp lxor x) * 0x100000001b3 in
  let mix_bits f =
    let b = Int64.bits_of_float f in
    mix (Int64.to_int (Int64.shift_right_logical b 32));
    mix (Int64.to_int (Int64.logand b 0xFFFFFFFFL))
  in
  let select ~cpu =
    let w = inner.select ~cpu in
    mix (match w with Some th -> Kernel.thread_id th | None -> -1);
    for i = 0 to shards - 1 do
      mix_bits (Lottery_sched.shard_ticket_mass ls i)
    done;
    w
  in
  let k =
    Kernel.create ~quantum:(Time.ms 10) ~cpus:shards ~sched:{ inner with select } ()
  in
  let interactive r () =
    while true do
      Api.compute (Rng.int_in r ~lo:200 ~hi:5000);
      Api.sleep (Rng.int_in r ~lo:5000 ~hi:55000)
    done
  in
  let base = Lottery_sched.base_currency ls in
  let curs =
    Array.init 8 (fun i -> Lottery_sched.make_currency ls (Printf.sprintf "cur%d" i))
  in
  let backing =
    Array.map
      (fun c ->
        Lottery_sched.fund_currency ls ~target:c
          ~amount:(Rng.int_in gen ~lo:100 ~hi:1000)
          ~from:base)
      curs
  in
  let spawn name from =
    let th = Kernel.spawn k ~name (interactive (Rng.split gen)) in
    ignore
      (Lottery_sched.fund_thread ls th ~amount:(Rng.int_in gen ~lo:1 ~hi:100) ~from);
    th
  in
  Array.iteri
    (fun ci cur ->
      for j = 0 to 15 do
        ignore (spawn (Printf.sprintf "i%d.%d" ci j) cur)
      done)
    curs;
  let transients = Queue.create () in
  let next = ref (Time.ms 10) in
  Kernel.set_pre_select k
    (Some
       (fun () ->
         while Kernel.now k >= !next do
           next := !next + Time.ms 10;
           let c = Rng.int_below gen 8 in
           Lottery_sched.set_ticket_amount ls backing.(c)
             (Rng.int_in gen ~lo:100 ~hi:1000);
           Queue.push (spawn "transient" curs.(Rng.int_below gen 8)) transients;
           if Queue.length transients > 4 then Kernel.kill k (Queue.pop transients)
         done));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  check (Alcotest.list Alcotest.string) "sharding audit clean" []
    (Lottery_sched.check_sharding ls);
  check (Alcotest.list Alcotest.string) "funding coherent" []
    (Lottery_sched.check_funding_coherence ls (Kernel.threads k));
  !fp

(* The fold pinned at the value the schedule-identical history of this
   scheduler produces; a change that reorders weight writes, or moves any
   weight by one bit, changes it. *)
let test_weight_fingerprint () =
  let fp = weight_fingerprint () in
  Printf.printf "weight fingerprint %d\n" fp;
  checki "weight-write fingerprint" 2172704683801328859 fp

let () =
  Alcotest.run "smp"
    [
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
          Alcotest.test_case "a steal never takes a zero-mass shard" `Quick
            test_steal_skips_zero_mass;
          Alcotest.test_case "placement picks the least-loaded shard" `Quick
            test_placement_least_loaded;
          QCheck_alcotest.to_alcotest test_mass_model;
          Alcotest.test_case "one shard keeps the winner in its draw" `Quick
            test_one_shard_keeps_winner_in_draw;
          Alcotest.test_case "argument guards" `Quick test_smp_guards;
          Alcotest.test_case "out-of-range placement raises" `Quick
            test_placement_hook_out_of_range_raises;
          Alcotest.test_case "weight-write fingerprint" `Quick
            test_weight_fingerprint;
        ] );
    ]
