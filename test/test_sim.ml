(* Kernel semantics: time accounting, preemption, sleep, RPC, mutexes,
   determinism, failure handling, the timer heap, and Time helpers. *)

open Core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf msg = check (Alcotest.float 1e-9) msg

(* a fresh kernel under round-robin: deterministic and policy-free *)
let rr_kernel ?quantum () =
  Kernel.create ?quantum ~sched:(Round_robin.sched (Round_robin.create ())) ()

(* --- heap ------------------------------------------------------------------ *)

module Heap = Lotto_sim.Heap

(* pop every entry, minimum first, as (key, value) pairs *)
let drain h =
  let out = ref [] in
  while not (Heap.is_empty h) do
    out := (Heap.min_key h, Heap.min_elt h) :: !out;
    Heap.drop_min h
  done;
  List.rev !out

let test_heap_ordering () =
  let h = Heap.create ~dummy:(-1) in
  List.iter (fun k -> Heap.push h ~key:k k) [ 5; 1; 4; 1; 3; 9; 0 ];
  checki "size" 7 (Heap.size h);
  check (Alcotest.list Alcotest.int) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ]
    (List.map fst (drain h));
  checkb "empty" true (Heap.is_empty h)

let test_heap_fifo_on_ties () =
  let h = Heap.create ~dummy:"" in
  Heap.push h ~key:7 "first";
  Heap.push h ~key:7 "second";
  Heap.push h ~key:7 "third";
  check (Alcotest.list Alcotest.string) "fifo" [ "first"; "second"; "third" ]
    (List.map snd (drain h))

let test_heap_growth () =
  let h = Heap.create ~dummy:(-1) in
  for i = 999 downto 0 do
    Heap.push h ~key:i i
  done;
  checki "size" 1000 (Heap.size h);
  checki "min key" 0 (Heap.min_key h);
  checki "min value" 0 (Heap.min_elt h);
  checki "size unchanged by reading the minimum" 1000 (Heap.size h)

(* A burst of 17 to 40 pushes, which grows the heap past its initial 16
   cells, then a random interleaving of pushes and drops, with keys drawn
   from a small range so that many repeat: every drop must take the entry
   a stable sort of the live entries by key puts first, which is the
   earliest pushed among the smallest keys. *)
let qcheck_heap_stable_order =
  QCheck.Test.make ~count:300 ~name:"heap pops in stable-sort order"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 17 40) (int_bound 9))
        (list_of_size Gen.(int_range 0 200) (option (int_bound 9))))
    (fun (burst, ops) ->
      let h = Heap.create ~dummy:(-1, -1) in
      let model = ref [] (* live (key, push number), in push order *) in
      let pushed = ref 0 in
      let popped = ref [] and expected = ref [] in
      let drop () =
        match List.stable_sort (fun (a, _) (b, _) -> compare a b) !model with
        | [] -> ()
        | first :: _ ->
            expected := first :: !expected;
            model := List.filter (fun e -> e <> first) !model;
            if Heap.min_key h <> fst (Heap.min_elt h) then
              QCheck.Test.fail_report "min_key disagrees with min_elt";
            popped := Heap.min_elt h :: !popped;
            Heap.drop_min h
      in
      List.iter
        (function
          | Some key ->
              let e = (key, !pushed) in
              incr pushed;
              model := !model @ [ e ];
              Heap.push h ~key e
          | None -> drop ())
        (List.map Option.some burst @ ops);
      while !model <> [] do
        drop ()
      done;
      Heap.is_empty h && !popped = !expected)

(* --- time ------------------------------------------------------------------- *)

let test_time_units () =
  checki "us" 7 (Time.us 7);
  checki "ms" 3_000 (Time.ms 3);
  checki "seconds" 2_000_000 (Time.seconds 2);
  checkf "to_seconds" 1.5 (Time.to_seconds 1_500_000);
  checkf "to_ms" 2.5 (Time.to_ms 2_500);
  check Alcotest.string "pp" "1.250s" (Format.asprintf "%a" Time.pp 1_250_000)

(* --- basic execution ---------------------------------------------------------- *)

let test_compute_accounting () =
  let k = rr_kernel () in
  let th =
    Kernel.spawn k ~name:"worker" (fun () ->
        Api.compute (Time.ms 250);
        Api.compute (Time.ms 250))
  in
  let s = Kernel.run k ~until:(Time.seconds 10) in
  checki "cpu charged exactly" (Time.ms 500) (Kernel.cpu_time th);
  checki "clock advanced to completion" (Time.ms 500) s.ended_at;
  checkb "thread exited" true (Kernel.thread_state th = Types.Zombie);
  checkb "no failures" true (Kernel.failures k = [])

let test_quantum_preemption_interleaves () =
  (* two equal RR threads must alternate per 100ms quantum *)
  let k = rr_kernel ~quantum:(Time.ms 100) () in
  let spin name =
    Kernel.spawn k ~name (fun () ->
        while true do
          Api.compute (Time.ms 10)
        done)
  in
  let a = spin "a" and b = spin "b" in
  ignore (Kernel.run k ~until:(Time.seconds 10));
  checki "equal shares" (Kernel.cpu_time a) (Kernel.cpu_time b);
  checki "everything accounted" (Time.seconds 10) (Kernel.cpu_time a + Kernel.cpu_time b)

let test_slice_count () =
  let k = rr_kernel ~quantum:(Time.ms 100) () in
  ignore
    (Kernel.spawn k ~name:"solo" (fun () ->
         while true do
           Api.compute (Time.ms 100)
         done));
  let s = Kernel.run k ~until:(Time.seconds 1) in
  checki "one decision per quantum" 10 s.slices

let test_sleep_wakes_on_time () =
  let k = rr_kernel () in
  let woke = ref (-1) in
  ignore
    (Kernel.spawn k ~name:"sleeper" (fun () ->
         Api.sleep (Time.ms 300);
         woke := Api.now ()));
  let s = Kernel.run k ~until:(Time.seconds 5) in
  checki "woke at 300ms" (Time.ms 300) !woke;
  checkb "idle time accounted" true (s.idle_ticks >= Time.ms 300)

let test_sleep_zero () =
  let k = rr_kernel () in
  let order = ref [] in
  ignore
    (Kernel.spawn k ~name:"z" (fun () ->
         order := `Before :: !order;
         Api.sleep 0;
         order := `After :: !order));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  check (Alcotest.list Alcotest.bool) "both steps ran" [ true; true ]
    (List.map (fun _ -> true) !order)

let test_now_and_self () =
  let k = rr_kernel () in
  let seen = ref ("", -1) in
  let th =
    Kernel.spawn k ~name:"me" (fun () ->
        Api.compute (Time.ms 50);
        seen := (Kernel.thread_name (Api.self ()), Api.now ()))
  in
  ignore (Kernel.run k ~until:(Time.seconds 1));
  check Alcotest.string "self" "me" (fst !seen);
  checki "now" (Time.ms 50) (snd !seen);
  checki "thread id stable" (Kernel.thread_id th) (Kernel.thread_id th)

let test_spawn_from_inside () =
  let k = rr_kernel () in
  let child = ref None in
  ignore
    (Kernel.spawn k ~name:"parent" (fun () ->
         Api.compute (Time.ms 10);
         child := Some (Api.spawn "child" (fun () -> Api.compute (Time.ms 70)));
         Api.compute (Time.ms 10)));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  match !child with
  | Some th -> checki "child ran" (Time.ms 70) (Kernel.cpu_time th)
  | None -> Alcotest.fail "child not spawned"

let test_yield_rotates () =
  let k = rr_kernel ~quantum:(Time.ms 100) () in
  let trace = ref [] in
  let mk name =
    Kernel.spawn k ~name (fun () ->
        for _ = 1 to 3 do
          Api.compute (Time.ms 10);
          trace := name :: !trace;
          Api.yield ()
        done)
  in
  ignore (mk "a");
  ignore (mk "b");
  ignore (Kernel.run k ~until:(Time.seconds 1));
  (* yielding after 10ms lets the other thread in: strict alternation *)
  check
    (Alcotest.list Alcotest.string)
    "alternation" [ "a"; "b"; "a"; "b"; "a"; "b" ]
    (List.rev !trace)

(* --- RPC ----------------------------------------------------------------------- *)

let test_rpc_roundtrip () =
  let k = rr_kernel () in
  let port = Kernel.create_port k ~name:"echo" in
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         let m = Api.receive port in
         Api.compute (Time.ms 100);
         Api.reply m ("got:" ^ m.payload)));
  let answer = ref "" in
  ignore
    (Kernel.spawn k ~name:"client" (fun () ->
         answer := Api.rpc port "ping"));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  check Alcotest.string "reply" "got:ping" !answer

let test_rpc_response_time_includes_service () =
  let k = rr_kernel () in
  let port = Kernel.create_port k ~name:"svc" in
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         while true do
           let m = Api.receive port in
           Api.compute (Time.ms 200);
           Api.reply m ""
         done));
  let latency = ref 0 in
  ignore
    (Kernel.spawn k ~name:"client" (fun () ->
         let t0 = Api.now () in
         ignore (Api.rpc port "x");
         latency := Api.now () - t0));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  checki "latency is the service time" (Time.ms 200) !latency

let test_rpc_queue_is_fifo () =
  let k = rr_kernel () in
  let port = Kernel.create_port k ~name:"q" in
  let served = ref [] in
  ignore
    (Kernel.spawn k ~name:"c1" (fun () -> ignore (Api.rpc port "first")));
  ignore
    (Kernel.spawn k ~name:"c2" (fun () -> ignore (Api.rpc port "second")));
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         for _ = 1 to 2 do
           let m = Api.receive port in
           served := m.payload :: !served;
           Api.reply m ""
         done));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  check (Alcotest.list Alcotest.string) "fifo order" [ "first"; "second" ]
    (List.rev !served)

let test_rpc_multiple_workers_parallel () =
  (* two workers serve two clients concurrently: both replies land at 100ms
     of virtual time, not 200ms *)
  let k = rr_kernel () in
  let port = Kernel.create_port k ~name:"pool" in
  for i = 1 to 2 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun () ->
           while true do
             let m = Api.receive port in
             Api.compute (Time.ms 100);
             Api.reply m ""
           done))
  done;
  let done_at = Array.make 2 0 in
  for i = 0 to 1 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "c%d" i) (fun () ->
           ignore (Api.rpc port "x");
           done_at.(i) <- Api.now ()))
  done;
  ignore (Kernel.run k ~until:(Time.seconds 2));
  (* with interleaved 100ms quanta both finish by 200ms; with a single
     worker the second would finish at 200ms+ *)
  checkb "both served concurrently" true
    (done_at.(0) = Time.ms 200 && done_at.(1) = Time.ms 200)

let test_message_metadata () =
  let k = rr_kernel () in
  let port = Kernel.create_port k ~name:"meta" in
  let seen = ref None in
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         let m = Api.receive port in
         seen := Some (Kernel.thread_name m.sender, m.sent_at);
         Api.reply m ""));
  ignore
    (Kernel.spawn k ~name:"client" (fun () ->
         Api.compute (Time.ms 30);
         ignore (Api.rpc port "x")));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  (match !seen with
  | Some (sender, at) ->
      check Alcotest.string "sender" "client" sender;
      checki "sent_at" (Time.ms 30) at
  | None -> Alcotest.fail "no message")

let test_poll_receive () =
  let k = rr_kernel () in
  let port = Kernel.create_port k ~name:"p" in
  let seen = ref [] in
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         (* empty poll first *)
         (match Api.poll_receive port with
         | None -> seen := "empty" :: !seen
         | Some _ -> seen := "unexpected" :: !seen);
         Api.sleep (Time.ms 10);
         (* two queued requests drained without blocking *)
         let rec drain () =
           match Api.poll_receive port with
           | Some m ->
               seen := m.payload :: !seen;
               Api.reply m "";
               drain ()
           | None -> ()
         in
         drain ()));
  for i = 1 to 2 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "c%d" i) (fun () ->
           Api.sleep (Time.ms 1);
           ignore (Api.rpc port (Printf.sprintf "m%d" i))))
  done;
  ignore (Kernel.run k ~until:(Time.seconds 1));
  check (Alcotest.list Alcotest.string) "poll saw both after the empty probe"
    [ "empty"; "m1"; "m2" ] (List.rev !seen);
  checkb "clients unblocked" true (Kernel.failures k = [])

let test_rpc_after_server_killed () =
  let k = rr_kernel () in
  let port = Kernel.create_port k ~name:"p" in
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        let m = Api.receive port in
        Api.reply m "")
  in
  ignore (Kernel.run k ~until:(Time.ms 1));
  Kernel.kill k server;
  (* a sender now waits forever: deadlock detection must fire, and the
     dead waiter entry must not corrupt the port *)
  ignore (Kernel.spawn k ~name:"client" (fun () -> ignore (Api.rpc port "x")));
  let s = Kernel.run k ~until:(Time.seconds 1) in
  checkb "deadlock detected" true s.deadlocked

let test_rpc_many_gathers_in_order () =
  let k = rr_kernel () in
  let mk_port cost name =
    let port = Kernel.create_port k ~name in
    ignore
      (Kernel.spawn k ~name:(name ^ "-srv") (fun () ->
           while true do
             let m = Api.receive port in
             Api.compute cost;
             Api.reply m (name ^ ":" ^ m.payload)
           done));
    port
  in
  let fast = mk_port (Time.ms 10) "fast" in
  let slow = mk_port (Time.ms 200) "slow" in
  let got = ref [] in
  ignore
    (Kernel.spawn k ~name:"client" (fun () ->
         Api.sleep (Time.ms 1);
         got := Api.rpc_many [ (slow, "a"); (fast, "b"); (slow, "c") ]));
  ignore (Kernel.run k ~until:(Time.seconds 5));
  check (Alcotest.list Alcotest.string) "replies in request order"
    [ "slow:a"; "fast:b"; "slow:c" ] !got

let test_rpc_many_empty_rejected () =
  let k = rr_kernel () in
  ignore (Kernel.spawn k ~name:"client" (fun () -> ignore (Api.rpc_many [])));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  (match Kernel.failures k with
  | [ (_, Invalid_argument _) ] -> ()
  | _ -> Alcotest.fail "empty scatter should fail the caller")

(* --- mutexes ---------------------------------------------------------------------- *)

let test_mutex_mutual_exclusion () =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let m = Kernel.create_mutex k "m" in
  let inside = ref 0 and violations = ref 0 in
  for i = 1 to 4 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
           for _ = 1 to 20 do
             Api.lock m;
             incr inside;
             if !inside > 1 then incr violations;
             Api.compute (Time.ms 25);
             decr inside;
             Api.unlock m
           done))
  done;
  ignore (Kernel.run k ~until:(Time.seconds 10));
  checki "no two holders" 0 !violations;
  checki "all exited cleanly" 0 (List.length (Kernel.failures k))

let test_mutex_fifo_policy () =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let m = Kernel.create_mutex k ~policy:Types.Fifo "m" in
  let order = ref [] in
  ignore
    (Kernel.spawn k ~name:"holder" (fun () ->
         Api.lock m;
         Api.compute (Time.ms 100);
         Api.unlock m));
  for i = 1 to 3 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun () ->
           (* stagger arrivals to fix the waiter order *)
           Api.sleep (Time.ms i);
           Api.lock m;
           order := i :: !order;
           Api.unlock m))
  done;
  ignore (Kernel.run k ~until:(Time.seconds 2));
  check (Alcotest.list Alcotest.int) "fifo handoff" [ 1; 2; 3 ] (List.rev !order)

let test_with_lock_releases_on_exception () =
  let k = rr_kernel () in
  let m = Kernel.create_mutex k "m" in
  let second_got_it = ref false in
  ignore
    (Kernel.spawn k ~name:"thrower" (fun () ->
         try Api.with_lock m (fun () -> failwith "boom") with Failure _ -> ()));
  ignore
    (Kernel.spawn k ~name:"second" (fun () ->
         Api.sleep (Time.ms 1);
         Api.with_lock m (fun () -> second_got_it := true)));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "lock released by exception path" true !second_got_it;
  checki "acquisitions" 2 m.Types.acquisitions

let test_unlock_not_owner_fails_thread () =
  let k = rr_kernel () in
  let m = Kernel.create_mutex k "m" in
  ignore (Kernel.spawn k ~name:"bad" (fun () -> Api.unlock m));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  match Kernel.failures k with
  | [ (th, Invalid_argument _) ] ->
      check Alcotest.string "failing thread" "bad" (Kernel.thread_name th)
  | _ -> Alcotest.fail "expected exactly one Invalid_argument failure"

(* --- condition variables and semaphores --------------------------------------------- *)

let test_condition_producer_consumer () =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let m = Kernel.create_mutex k "m" in
  let c = Kernel.create_condition k "items" in
  let queue = Queue.create () in
  let consumed = ref [] in
  ignore
    (Kernel.spawn k ~name:"consumer" (fun () ->
         for _ = 1 to 5 do
           Api.lock m;
           while Queue.is_empty queue do
             Api.wait c m
           done;
           consumed := Queue.pop queue :: !consumed;
           Api.unlock m
         done));
  ignore
    (Kernel.spawn k ~name:"producer" (fun () ->
         for i = 1 to 5 do
           Api.compute (Time.ms 30);
           Api.lock m;
           Queue.push i queue;
           Api.signal c;
           Api.unlock m
         done));
  ignore (Kernel.run k ~until:(Time.seconds 5));
  checkb "no failures" true (Kernel.failures k = []);
  check (Alcotest.list Alcotest.int) "all items, in order" [ 1; 2; 3; 4; 5 ]
    (List.rev !consumed);
  checki "signals counted" 5 c.Types.signals

let test_condition_wait_releases_mutex () =
  let k = rr_kernel () in
  let m = Kernel.create_mutex k "m" in
  let c = Kernel.create_condition k "c" in
  let got_lock_while_waiter_blocked = ref false in
  ignore
    (Kernel.spawn k ~name:"waiter" (fun () ->
         Api.lock m;
         Api.wait c m;
         Api.unlock m));
  ignore
    (Kernel.spawn k ~name:"other" (fun () ->
         Api.sleep (Time.ms 1);
         (* the waiter is blocked in wait: the mutex must be free *)
         Api.lock m;
         got_lock_while_waiter_blocked := true;
         Api.signal c;
         Api.unlock m));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  checkb "wait released the mutex" true !got_lock_while_waiter_blocked;
  checkb "waiter completed after signal" true (Kernel.failures k = [])

let test_broadcast_wakes_all () =
  let k = rr_kernel () in
  let m = Kernel.create_mutex k "m" in
  let c = Kernel.create_condition k "barrier" in
  let released = ref 0 in
  let gate_open = ref false in
  for i = 1 to 4 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun () ->
           Api.lock m;
           while not !gate_open do
             Api.wait c m
           done;
           incr released;
           Api.unlock m))
  done;
  ignore
    (Kernel.spawn k ~name:"opener" (fun () ->
         Api.sleep (Time.ms 5);
         Api.lock m;
         gate_open := true;
         Api.broadcast c;
         Api.unlock m));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  checki "all four released" 4 !released

let test_signal_no_waiters_is_noop () =
  let k = rr_kernel () in
  let c = Kernel.create_condition k "c" in
  ignore
    (Kernel.spawn k ~name:"t" (fun () ->
         Api.signal c;
         Api.broadcast c));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "no failures" true (Kernel.failures k = [])

let test_semaphore_counting () =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let sm = Kernel.create_semaphore k ~initial:2 "pool" in
  let inside = ref 0 and peak = ref 0 in
  for i = 1 to 5 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
           Api.sem_wait sm;
           incr inside;
           peak := max !peak !inside;
           Api.compute (Time.ms 30);
           decr inside;
           Api.sem_post sm))
  done;
  ignore (Kernel.run k ~until:(Time.seconds 5));
  checkb "no failures" true (Kernel.failures k = []);
  checki "never more than 2 permits out" 2 !peak;
  checki "count restored" 2 sm.Types.count

let test_semaphore_zero_initial_blocks () =
  let k = rr_kernel () in
  let sm = Kernel.create_semaphore k ~initial:0 "event" in
  let order = ref [] in
  ignore
    (Kernel.spawn k ~name:"waiter" (fun () ->
         Api.sem_wait sm;
         order := "woke" :: !order));
  ignore
    (Kernel.spawn k ~name:"poster" (fun () ->
         Api.sleep (Time.ms 20);
         order := "posting" :: !order;
         Api.sem_post sm));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  check (Alcotest.list Alcotest.string) "post before wake" [ "posting"; "woke" ]
    (List.rev !order)

(* Wait-queue arrival order survives kills: 64 waiters on a FIFO
   semaphore, every fifth killed while queued, are woken by 64 posts in
   exactly their arrival order, and the killed never wake. *)
let test_fifo_semaphore_order_with_kills () =
  let k = rr_kernel () in
  let sm = Kernel.create_semaphore k ~initial:0 "handoff" in
  let woke = ref [] in
  let waiters =
    Array.init 64 (fun i ->
        Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun () ->
            Api.sem_wait sm;
            woke := i :: !woke))
  in
  ignore (Kernel.run k ~until:(Time.ms 1));
  checki "all queued" 64 (Waitq.length sm.Types.sem_waiters);
  let killed i = i mod 5 = 2 in
  Array.iteri (fun i th -> if killed i then Kernel.kill k th) waiters;
  check (Alcotest.list Alcotest.string) "audit clean after kills" []
    (Kernel.check_invariants k);
  ignore
    (Kernel.spawn k ~name:"poster" (fun () ->
         for _ = 1 to 64 do
           Api.sem_post sm;
           Api.sleep (Time.ms 1)
         done));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  let expected = List.filter (fun i -> not (killed i)) (List.init 64 Fun.id) in
  check (Alcotest.list Alcotest.int) "woken in arrival order" expected
    (List.rev !woke);
  checki "posts to no waiter bank a permit" (64 - List.length expected)
    sm.Types.count;
  check (Alcotest.list Alcotest.string) "audit clean at the end" []
    (Kernel.check_invariants k)

(* The wait queue against a plain-list model: push appends, a FIFO pop
   takes the head, removal drops the first physically equal element,
   rotation is [rest @ [x]], and listing, iteration and counts agree. *)
type wq_op = Push | Pop | Remove of int | Remove_absent | Rotate

let show_wq_op = function
  | Push -> "push"
  | Pop -> "pop"
  | Remove i -> Printf.sprintf "remove %d" i
  | Remove_absent -> "remove-absent"
  | Rotate -> "rotate"

let gen_wq_op =
  QCheck.Gen.(
    frequency
      [
        (5, return Push);
        (3, return Pop);
        (2, map (fun i -> Remove i) (int_bound 50));
        (1, return Remove_absent);
        (1, return Rotate);
      ])

let rec remove_first x = function
  | [] -> []
  | y :: rest -> if y == x then rest else y :: remove_first x rest

let prop_waitq_model ops =
  let q = Waitq.create () in
  let model = ref [] in
  let next = ref 0 in
  let same () =
    let l = Waitq.to_list q in
    let iterated = ref [] in
    Waitq.iter (fun x -> iterated := x :: !iterated) q;
    List.length l = List.length !model
    && List.for_all2 ( == ) l !model
    && List.for_all2 ( == ) (List.rev !iterated) !model
    && Waitq.length q = List.length !model
    && Waitq.is_empty q = (!model = [])
    && Waitq.count (fun x -> !x mod 2 = 0) q
       = List.length (List.filter (fun x -> !x mod 2 = 0) !model)
  in
  List.for_all
    (fun op ->
      (match op with
      | Push ->
          (* a fresh box per element, so identity and value differ *)
          let x = ref (!next / 2) in
          incr next;
          Waitq.push q x;
          model := !model @ [ x ]
      | Pop -> (
          match !model with
          | [] -> ()
          | x :: rest ->
              if Waitq.pop q != x then failwith "pop returned a non-head";
              model := rest)
      | Remove i -> (
          match !model with
          | [] -> ()
          | l ->
              let x = List.nth l (i mod List.length l) in
              Waitq.remove q x;
              model := remove_first x l)
      | Remove_absent -> Waitq.remove q (ref 0)
      | Rotate -> (
          Waitq.rotate q;
          match !model with [] -> () | x :: rest -> model := rest @ [ x ]));
      same ())
    ops

let qcheck_waitq_model =
  QCheck.Test.make ~count:500 ~name:"wait queue matches a list model"
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_wq_op l))
       QCheck.Gen.(list_size (int_range 0 80) gen_wq_op))
    prop_waitq_model

(* --- join and kill ------------------------------------------------------------------- *)

let test_join_waits_for_exit () =
  let k = rr_kernel () in
  let worker = Kernel.spawn k ~name:"worker" (fun () -> Api.compute (Time.ms 300)) in
  let joined_at = ref (-1) in
  ignore
    (Kernel.spawn k ~name:"joiner" (fun () ->
         Api.join worker;
         joined_at := Api.now ()));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  checki "joined exactly at worker exit" (Time.ms 300) !joined_at

let test_join_already_dead () =
  let k = rr_kernel () in
  let worker = Kernel.spawn k ~name:"worker" (fun () -> ()) in
  ignore (Kernel.run k ~until:(Time.ms 1));
  let ok = ref false in
  ignore
    (Kernel.spawn k ~name:"joiner" (fun () ->
         Api.join worker;
         ok := true));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "join on zombie returns immediately" true !ok

let test_join_self_rejected () =
  let k = rr_kernel () in
  ignore (Kernel.spawn k ~name:"narcissus" (fun () -> Api.join (Api.self ())));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  (match Kernel.failures k with
  | [ (_, Invalid_argument _) ] -> ()
  | _ -> Alcotest.fail "self-join should fail the thread")

let test_join_funds_target () =
  (* the joiner's tickets speed up the joined thread *)
  let rng = Rng.create ~seed:88 () in
  let ls = Lottery_sched.create ~rng () in
  let k = Kernel.create ~sched:(Lottery_sched.sched ls) () in
  let base = Lottery_sched.base_currency ls in
  let worker = Kernel.spawn k ~name:"worker" (fun () -> Api.compute (Time.seconds 10)) in
  let done_at = ref 0 in
  let joiner =
    Kernel.spawn k ~name:"joiner" (fun () ->
        Api.join worker;
        done_at := Api.now ())
  in
  let spinner =
    Kernel.spawn k ~name:"spinner" (fun () ->
        while true do
          Api.compute (Time.ms 10)
        done)
  in
  ignore (Lottery_sched.fund_thread ls worker ~amount:100 ~from:base);
  ignore (Lottery_sched.fund_thread ls joiner ~amount:200 ~from:base);
  ignore (Lottery_sched.fund_thread ls spinner ~amount:100 ~from:base);
  ignore (Kernel.run k ~until:(Time.seconds 60));
  (* worker runs with 100+200 of 400 = 3/4 share: 10s of work in ~13.3s,
     versus 40s if the joiner's transfer were lost *)
  checkb
    (Printf.sprintf "worker finished early (t=%.1fs)" (Time.to_seconds !done_at))
    true
    (!done_at > 0 && !done_at < Time.seconds 20)

let test_kill_blocked_thread () =
  let k = rr_kernel () in
  let port = Kernel.create_port k ~name:"never" in
  let victim = Kernel.spawn k ~name:"victim" (fun () -> ignore (Api.receive port)) in
  ignore (Kernel.run k ~until:(Time.ms 10));
  checkb "blocked" true (Kernel.thread_state victim = Types.Blocked);
  Kernel.kill k victim;
  checkb "zombie" true (Kernel.thread_state victim = Types.Zombie);
  checkb "killed counted, not listed" true
    (Kernel.kill_count k = 1 && Kernel.failures k = [])

let test_kill_releases_lock_via_cleanup () =
  let k = rr_kernel () in
  let m = Kernel.create_mutex k "m" in
  let holder =
    Kernel.spawn k ~name:"holder" (fun () ->
        Api.with_lock m (fun () -> Api.compute (Time.seconds 100)))
  in
  let got_it = ref false in
  ignore
    (Kernel.spawn k ~name:"waiter" (fun () ->
         Api.sleep (Time.ms 10);
         Api.with_lock m (fun () -> got_it := true)));
  ignore (Kernel.run k ~until:(Time.ms 50));
  Kernel.kill k holder;
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "with_lock cleanup released the mutex to the waiter" true !got_it

let test_kill_survivable () =
  let k = rr_kernel () in
  let stubborn =
    Kernel.spawn k ~name:"stubborn" (fun () ->
        (try Api.compute (Time.seconds 100) with Types.Killed -> ());
        Api.compute (Time.ms 50))
  in
  ignore (Kernel.run k ~until:(Time.ms 10));
  Kernel.kill k stubborn;
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "caught Killed and finished normally" true
    (Kernel.thread_state stubborn = Types.Zombie && Kernel.failures k = []
    && Kernel.kill_count k = 0)

let test_kill_sleeping_thread_timer_harmless () =
  let k = rr_kernel () in
  let sleeper = Kernel.spawn k ~name:"sleeper" (fun () -> Api.sleep (Time.ms 100)) in
  ignore (Kernel.run k ~until:(Time.ms 10));
  Kernel.kill k sleeper;
  (* the dangling timer entry must not wake a zombie *)
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "zombie stays dead" true (Kernel.thread_state sleeper = Types.Zombie)

(* --- failure, deadlock, horizon ---------------------------------------------------- *)

let test_body_exception_recorded () =
  let k = rr_kernel () in
  let th = Kernel.spawn k ~name:"dies" (fun () -> failwith "oops") in
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "zombie" true (Kernel.thread_state th = Types.Zombie);
  (match Kernel.failures k with
  | [ (_, Failure m) ] when m = "oops" -> ()
  | _ -> Alcotest.fail "failure not recorded")

let test_deadlock_detected () =
  let k = rr_kernel () in
  let m1 = Kernel.create_mutex k "m1" in
  let m2 = Kernel.create_mutex k "m2" in
  ignore
    (Kernel.spawn k ~name:"ab" (fun () ->
         Api.lock m1;
         Api.sleep (Time.ms 10);
         Api.lock m2;
         Api.unlock m2;
         Api.unlock m1));
  ignore
    (Kernel.spawn k ~name:"ba" (fun () ->
         Api.lock m2;
         Api.sleep (Time.ms 10);
         Api.lock m1;
         Api.unlock m1;
         Api.unlock m2));
  let s = Kernel.run k ~until:(Time.seconds 5) in
  checkb "deadlock flagged" true s.deadlocked;
  checkb "stopped early" true (s.ended_at < Time.seconds 5)

let test_run_resumable () =
  let k = rr_kernel () in
  let th =
    Kernel.spawn k ~name:"long" (fun () ->
        while true do
          Api.compute (Time.ms 1)
        done)
  in
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checki "first second" (Time.seconds 1) (Kernel.cpu_time th);
  ignore (Kernel.run k ~until:(Time.seconds 3));
  checki "resumed to 3s" (Time.seconds 3) (Kernel.cpu_time th);
  checki "clock at horizon" (Time.seconds 3) (Kernel.now k)

let test_horizon_mid_compute () =
  (* horizon may land inside a compute request; the remainder must carry
     into the next run *)
  let k = rr_kernel () in
  let th = Kernel.spawn k ~name:"big" (fun () -> Api.compute (Time.seconds 4)) in
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checki "partial work" (Time.seconds 1) (Kernel.cpu_time th);
  ignore (Kernel.run k ~until:(Time.seconds 10));
  checki "completed" (Time.seconds 4) (Kernel.cpu_time th);
  checkb "exited" true (Kernel.thread_state th = Types.Zombie)

let test_determinism_trace () =
  let trace_of seed =
    let rng = Rng.create ~seed () in
    let ls = Lottery_sched.create ~rng () in
    let k = Kernel.create ~sched:(Lottery_sched.sched ls) () in
    let buf = Buffer.create 256 in
    ignore
      (Obs.Bus.subscribe (Kernel.bus k) (fun t ev ->
           Buffer.add_string buf (Printf.sprintf "%d %s\n" t (Obs.Event.render ev))));
    let mk name amount =
      let th =
        Kernel.spawn k ~name (fun () ->
            while true do
              Api.compute (Time.ms 7)
            done)
      in
      ignore (Lottery_sched.fund_thread ls th ~amount ~from:(Lottery_sched.base_currency ls))
    in
    mk "x" 100;
    mk "y" 300;
    ignore (Kernel.run k ~until:(Time.seconds 5));
    Buffer.contents buf
  in
  check Alcotest.string "same seed, same trace" (trace_of 11) (trace_of 11);
  checkb "different seed, different trace" true (trace_of 11 <> trace_of 12)

let test_api_outside_thread_rejected () =
  checkb "perform outside kernel raises" true
    (match Api.now () with
    | _ -> false
    | exception Effect.Unhandled _ -> true)

let test_timeline_records_shares () =
  let rng = Rng.create ~seed:77 () in
  let ls = Lottery_sched.create ~rng () in
  let k = Kernel.create ~sched:(Lottery_sched.sched ls) () in
  let tl = Timeline.attach k ~bucket:(Time.seconds 1) () in
  let spin name =
    Kernel.spawn k ~name (fun () ->
        while true do
          Api.compute (Time.ms 5)
        done)
  in
  let a = spin "busy" and b = spin "light" in
  ignore (Lottery_sched.fund_thread ls a ~amount:300 ~from:(Lottery_sched.base_currency ls));
  ignore (Lottery_sched.fund_thread ls b ~amount:100 ~from:(Lottery_sched.base_currency ls));
  ignore (Kernel.run k ~until:(Time.seconds 20));
  Timeline.detach tl;
  (* recorded CPU matches the kernel's accounting (the last slice may still
     be uncharged when recording stops) *)
  checkb "cpu recorded for busy" true
    (abs (Timeline.cpu_of tl "busy" - Kernel.cpu_time a) <= Time.ms 100);
  checkb "cpu recorded for light" true
    (abs (Timeline.cpu_of tl "light" - Kernel.cpu_time b) <= Time.ms 100);
  let chart = Timeline.render ~width:40 tl in
  checkb "chart mentions both rows" true
    (Core.Corpus.count_substring ~haystack:chart ~needle:"busy" = 1
    && Core.Corpus.count_substring ~haystack:chart ~needle:"light" = 1);
  checkb "busy row darker than light row" true
    (Core.Corpus.count_substring ~haystack:chart ~needle:"#" > 0);
  checkb "unknown thread has no cpu" true (Timeline.cpu_of tl "nope" = 0)

let test_timeline_empty () =
  let k = rr_kernel () in
  let tl = Timeline.attach k () in
  check Alcotest.string "placeholder" "(no activity recorded)\n" (Timeline.render tl)

let test_kernel_validation_and_accessors () =
  Alcotest.check_raises "quantum must be positive"
    (Invalid_argument "Kernel.create: quantum <= 0") (fun () ->
      ignore (rr_kernel ~quantum:0 ()));
  let k = rr_kernel ~quantum:(Time.ms 25) () in
  checki "quantum accessor" (Time.ms 25) (Kernel.quantum k);
  checki "clock starts at zero" 0 (Kernel.now k)

let test_compute_zero_and_negative () =
  let k = rr_kernel () in
  let th =
    Kernel.spawn k ~name:"noop" (fun () ->
        Api.compute 0;
        Api.compute (-5);
        Api.compute (Time.ms 1))
  in
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checki "only real work charged" (Time.ms 1) (Kernel.cpu_time th);
  checkb "clean exit" true (Kernel.failures k = [])

let test_semaphore_validation () =
  let k = rr_kernel () in
  Alcotest.check_raises "negative initial"
    (Invalid_argument "Kernel.create_semaphore: negative initial count") (fun () ->
      ignore (Kernel.create_semaphore k ~initial:(-1) "bad"))

let test_find_thread_and_listing () =
  let k = rr_kernel () in
  let a = Kernel.spawn k ~name:"alpha" (fun () -> ()) in
  let b = Kernel.spawn k ~name:"beta" (fun () -> ()) in
  let find name =
    List.find_opt (fun th -> Kernel.thread_name th = name) (Kernel.threads k)
  in
  checkb "find alpha" true
    (match find "alpha" with Some th -> th == a | None -> false);
  checkb "missing" true (find "gamma" = None);
  check (Alcotest.list Alcotest.string) "creation order" [ "alpha"; "beta" ]
    (List.map Kernel.thread_name (Kernel.threads k));
  ignore b

(* --- kill/reply lifecycle --------------------------------------------------- *)

(* count Rpc_reply_dropped events published on the kernel's bus *)
let count_drops k =
  let dropped = ref 0 in
  ignore
    (Obs.Bus.subscribe ~name:"drop-probe" (Kernel.bus k) (fun _ ev ->
         match ev with
         | Obs.Event.Rpc_reply_dropped _ -> incr dropped
         | _ -> ()));
  dropped

let test_reply_after_kill_is_traced_noop () =
  let k = rr_kernel () in
  let dropped = count_drops k in
  let p = Kernel.create_port k ~name:"svc" in
  let served = ref false in
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        let m = Api.receive p in
        Api.sleep (Time.ms 50);
        Api.reply m "late";
        served := true)
  in
  let client = Kernel.spawn k ~name:"client" (fun () -> ignore (Api.rpc p "req")) in
  ignore (Kernel.run k ~until:(Time.ms 10));
  Kernel.kill k client;
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "server survived the late reply" true !served;
  checkb "server exited clean" true (Kernel.thread_state server = Types.Zombie);
  checkb "only the client died" true
    (Kernel.failures k = [] && Kernel.kill_count k = 1
    && Kernel.thread_state client = Types.Zombie);
  checki "one dropped-reply event" 1 !dropped;
  check (Alcotest.list Alcotest.string) "invariants clean" []
    (Kernel.check_invariants k)

let test_reply_after_kill_scatter () =
  let k = rr_kernel () in
  let dropped = count_drops k in
  let p0 = Kernel.create_port k ~name:"p0" in
  let p1 = Kernel.create_port k ~name:"p1" in
  let serve name port delay =
    Kernel.spawn k ~name (fun () ->
        let m = Api.receive port in
        Api.sleep delay;
        Api.reply m "ok")
  in
  let s0 = serve "s0" p0 (Time.ms 5) in
  let s1 = serve "s1" p1 (Time.ms 50) in
  let client =
    Kernel.spawn k ~name:"client" (fun () ->
        ignore (Api.rpc_many [ (p0, "a"); (p1, "b") ]))
  in
  (* s0 has replied (slot 0 filled), s1 is still working: kill mid-scatter *)
  ignore (Kernel.run k ~until:(Time.ms 20));
  checkb "client still gathering" true (Kernel.thread_state client = Types.Blocked);
  Kernel.kill k client;
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "both servers exited clean" true
    (Kernel.thread_state s0 = Types.Zombie
    && Kernel.thread_state s1 = Types.Zombie
    && Kernel.failures k = [] && Kernel.kill_count k = 1);
  checki "straggler's reply dropped" 1 !dropped;
  check (Alcotest.list Alcotest.string) "invariants clean" []
    (Kernel.check_invariants k)

let test_reply_to_queued_message_from_dead_sender () =
  let k = rr_kernel () in
  let dropped = count_drops k in
  let p = Kernel.create_port k ~name:"svc" in
  let client = Kernel.spawn k ~name:"client" (fun () -> ignore (Api.rpc p "req")) in
  (* no server yet: the request sits in the port queue *)
  ignore (Kernel.run k ~until:(Time.ms 10));
  Kernel.kill k client;
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        let m = Api.receive p in
        Api.reply m "for a ghost")
  in
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "server handled the orphaned request" true
    (Kernel.thread_state server = Types.Zombie
    && not (List.exists (fun (th, _) -> th == server) (Kernel.failures k)));
  checki "reply dropped" 1 !dropped;
  check (Alcotest.list Alcotest.string) "invariants clean" []
    (Kernel.check_invariants k)

(* A client killed in its first [rpc] catches [Killed] and sends a second
   request to the same busy server. The server's answer to the first
   request must be dropped, not handed to the second [rpc]. *)
let test_late_reply_skips_newer_request () =
  let k = rr_kernel ~quantum:(Time.ms 1) () in
  let dropped = count_drops k in
  let p = Kernel.create_port k ~name:"svc" in
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun m -> log := m :: !log) fmt in
  ignore
    (Kernel.spawn k ~name:"srv" (fun () ->
         while true do
           let m = Api.receive p in
           Api.compute (Time.ms 20);
           Api.reply m ("answer-to-" ^ m.Types.payload)
         done));
  let client =
    Kernel.spawn k ~name:"c" (fun () ->
        try ignore (Api.rpc p "first")
        with Types.Killed -> say "c: second -> %s" (Api.rpc p "second"))
  in
  ignore (Kernel.run k ~until:(Time.ms 1));
  Kernel.kill k client;
  ignore (Kernel.run k ~until:(Time.ms 100));
  check Alcotest.(list string) "the second rpc gets its own answer"
    [ "c: second -> answer-to-second" ] (List.rev !log);
  checki "the first answer is dropped" 1 !dropped;
  checkb "no failure, no kill" true
    (Kernel.failures k = [] && Kernel.kill_count k = 0);
  check (Alcotest.list Alcotest.string) "invariants clean" []
    (Kernel.check_invariants k)

(* The same client's first request is still queued on a full drop-oldest
   port when it is killed; its second request evicts the first. The
   eviction must not reject the second request, which was admitted. *)
let test_eviction_skips_newer_request () =
  let k = rr_kernel ~quantum:(Time.ms 1) () in
  let p = Kernel.create_port k ~capacity:1 ~shed:Types.Drop_oldest ~name:"svc" in
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun m -> log := m :: !log) fmt in
  ignore
    (Kernel.spawn k ~name:"srv" (fun () ->
         Api.sleep (Time.ms 10);
         while true do
           let m = Api.receive p in
           say "srv: got %s" m.Types.payload;
           Api.reply m ("answer-to-" ^ m.Types.payload)
         done));
  let client =
    Kernel.spawn k ~name:"c" (fun () ->
        try ignore (Api.rpc p "first")
        with Types.Killed -> (
          say "c: first killed";
          match Api.rpc p "second" with
          | r -> say "c: second -> %s" r
          | exception Types.Rejected _ -> say "c: second rejected"))
  in
  ignore (Kernel.run k ~until:(Time.ms 2));
  Kernel.kill k client;
  ignore (Kernel.run k ~until:(Time.ms 100));
  check Alcotest.(list string) "the admitted request is served and answered"
    [ "c: first killed"; "srv: got second"; "c: second -> answer-to-second" ]
    (List.rev !log);
  checki "one request shed" 1 (Kernel.port_shed_count p);
  check (Alcotest.list Alcotest.string) "invariants clean" []
    (Kernel.check_invariants k)

(* A request abandoned by a client that caught [Killed] and went on to
   gather elsewhere is stale: drop-oldest must evict it for a newcomer,
   not skip it as a live scatter shard and reject the newcomer. *)
let test_stale_request_evictable () =
  let k = rr_kernel ~quantum:(Time.ms 1) () in
  let p = Kernel.create_port k ~capacity:1 ~shed:Types.Drop_oldest ~name:"svc" in
  let q = Kernel.create_port k ~name:"other" in
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun m -> log := m :: !log) fmt in
  let echo port delay =
    Kernel.spawn k ~name:"srv" (fun () ->
        Api.sleep delay;
        while true do
          let m = Api.receive port in
          say "%s: got %s" port.Types.port_name m.Types.payload;
          Api.reply m "ok"
        done)
  in
  ignore (echo p (Time.ms 10));
  ignore (echo q (Time.ms 50));
  let client =
    Kernel.spawn k ~name:"c" (fun () ->
        try ignore (Api.rpc p "first")
        with Types.Killed -> ignore (Api.rpc_many [ (q, "gather") ]))
  in
  ignore
    (Kernel.spawn k ~name:"d" (fun () ->
         Api.sleep (Time.ms 3);
         match Api.rpc p "d" with
         | r -> say "d -> %s" r
         | exception Types.Rejected _ -> say "d rejected"));
  ignore (Kernel.run k ~until:(Time.ms 2));
  Kernel.kill k client;
  ignore (Kernel.run k ~until:(Time.ms 100));
  check Alcotest.(list string) "the stale request made room"
    [ "svc: got d"; "d -> ok"; "other: got gather" ] (List.rev !log);
  checki "one request shed" 1 (Kernel.port_shed_count p);
  check (Alcotest.list Alcotest.string) "invariants clean" []
    (Kernel.check_invariants k)

(* The gather form of the first test: a client killed mid-[rpc_many]
   gathers again from the same servers; the old gather's late shard
   replies must not fill the new gather's slots. *)
let test_late_shard_skips_newer_gather () =
  let k = rr_kernel ~quantum:(Time.ms 1) () in
  let dropped = count_drops k in
  let ports = List.init 2 (fun i -> Kernel.create_port k ~name:(Printf.sprintf "p%d" i)) in
  let result = ref [] in
  List.iteri
    (fun i p ->
      ignore
        (Kernel.spawn k ~name:(Printf.sprintf "s%d" i) (fun () ->
             while true do
               let m = Api.receive p in
               Api.compute (Time.ms 20);
               Api.reply m ("answer-to-" ^ m.Types.payload)
             done)))
    ports;
  let client =
    Kernel.spawn k ~name:"c" (fun () ->
        let ask tag = Api.rpc_many (List.map (fun p -> (p, tag)) ports) in
        try ignore (ask "first") with Types.Killed -> result := ask "second")
  in
  ignore (Kernel.run k ~until:(Time.ms 1));
  Kernel.kill k client;
  ignore (Kernel.run k ~until:(Time.ms 200));
  check Alcotest.(list string) "the second gather gets its own answers"
    [ "answer-to-second"; "answer-to-second" ] !result;
  checki "both first answers dropped" 2 !dropped;
  checkb "no failure" true (Kernel.failures k = []);
  check (Alcotest.list Alcotest.string) "invariants clean" []
    (Kernel.check_invariants k)

let test_kill_during_cond_wait_reacquires () =
  let k = rr_kernel () in
  let m = Kernel.create_mutex k "m" in
  let c = Kernel.create_condition k "c" in
  let waiter =
    Kernel.spawn k ~name:"waiter" (fun () ->
        Api.with_lock m (fun () -> Api.wait c m))
  in
  ignore (Kernel.run k ~until:(Time.ms 10));
  checkb "parked on the condition" true (Kernel.thread_state waiter = Types.Blocked);
  Kernel.kill k waiter;
  ignore (Kernel.run k ~until:(Time.seconds 1));
  (* POSIX cancellation semantics: the mutex is reacquired before Killed
     propagates, so with_lock's cleanup unlocks cleanly and the thread dies
     with Killed — not Invalid_argument from unlocking an unowned mutex *)
  (match Kernel.failures k with
  | [] ->
      checkb "died with Killed" true
        (Kernel.kill_count k = 1 && Kernel.thread_state waiter = Types.Zombie)
  | fs ->
      Alcotest.failf "expected Killed, got %s"
        (String.concat ","
           (List.map (fun (_, e) -> Printexc.to_string e) fs)));
  checkb "mutex free again" true (m.Types.owner = None);
  check (Alcotest.list Alcotest.string) "invariants clean" []
    (Kernel.check_invariants k)

let test_dying_lock_owner_hands_off () =
  let k = rr_kernel () in
  let m = Kernel.create_mutex k "m" in
  (* no with_lock: the holder dies without running any cleanup *)
  let holder =
    Kernel.spawn k ~name:"holder" (fun () ->
        Api.lock m;
        Api.sleep (Time.ms 200);
        Api.unlock m)
  in
  let got_it = ref false in
  ignore
    (Kernel.spawn k ~name:"waiter" (fun () ->
         Api.with_lock m (fun () -> got_it := true)));
  ignore (Kernel.run k ~until:(Time.ms 10));
  Kernel.kill k holder;
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "waiter got the orphaned mutex" true !got_it;
  checkb "mutex free at the end" true (m.Types.owner = None);
  check (Alcotest.list Alcotest.string) "invariants clean" []
    (Kernel.check_invariants k)

let test_stale_timer_idle_accounting () =
  let k = rr_kernel () in
  let sleeper = Kernel.spawn k ~name:"sleeper" (fun () -> Api.sleep (Time.ms 500)) in
  let s1 = Kernel.run k ~until:(Time.ms 10) in
  checki "idle up to the first horizon" (Time.ms 10) s1.idle_ticks;
  Kernel.kill k sleeper;
  (* the dead sleeper's timer entry must not pull the clock to 500 ms or
     count phantom idle time *)
  let s2 = Kernel.run k ~until:(Time.seconds 2) in
  checki "clock did not chase the stale timer" (Time.ms 10) s2.ended_at;
  checki "no phantom idle" (Time.ms 10) s2.idle_ticks;
  checkb "not a deadlock" true (not s2.deadlocked)

let test_check_invariants_clean_on_healthy_kernel () =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let m = Kernel.create_mutex k "m" in
  let sm = Kernel.create_semaphore k ~initial:1 "s" in
  let p = Kernel.create_port k ~name:"svc" in
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         for _ = 1 to 3 do
           let msg = Api.receive p in
           Api.reply msg "ok"
         done));
  for i = 1 to 3 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun () ->
           Api.with_lock m (fun () -> Api.compute_ms 5);
           Api.sem_wait sm;
           ignore (Api.rpc p "hi");
           Api.sem_post sm))
  done;
  (* audit mid-flight at every scheduling boundary, then once at the end *)
  let worst = ref [] in
  Kernel.set_pre_select k
    (Some
       (fun () ->
         match Kernel.check_invariants k with
         | [] -> ()
         | vs -> if !worst = [] then worst := vs));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  check (Alcotest.list Alcotest.string) "mid-run audits clean" [] !worst;
  check (Alcotest.list Alcotest.string) "final audit clean" []
    (Kernel.check_invariants k);
  checkb "workload actually finished" true (Kernel.failures k = [])

let test_check_invariants_reports_corruption () =
  let k = rr_kernel () in
  let m = Kernel.create_mutex k "m" in
  let violations_seen = ref 0 in
  ignore
    (Obs.Bus.subscribe ~name:"viol-probe" (Kernel.bus k) (fun _ ev ->
         match ev with
         | Obs.Event.Invariant_violation _ -> incr violations_seen
         | _ -> ()));
  let ghost = Kernel.spawn k ~name:"ghost" (fun () -> ()) in
  ignore (Kernel.run k ~until:(Time.ms 10));
  checkb "ghost is a zombie" true (Kernel.thread_state ghost = Types.Zombie);
  (* corrupt the kernel on purpose: a dead thread on a waiter list must be
     REPORTED by the auditor — returned and published — not crashed on *)
  Waitq.push m.Types.lock_waiters ghost;
  let vs = Kernel.check_invariants k in
  checkb "corruption detected" true (vs <> []);
  checkb "violation published on the bus" true (!violations_seen > 0);
  Waitq.remove m.Types.lock_waiters ghost;
  check (Alcotest.list Alcotest.string) "clean after repair" []
    (Kernel.check_invariants k)

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "min ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo on equal keys" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "growth and peek" `Quick test_heap_growth;
          QCheck_alcotest.to_alcotest qcheck_heap_stable_order;
        ] );
      ("time", [ Alcotest.test_case "unit conversions" `Quick test_time_units ]);
      ( "execution",
        [
          Alcotest.test_case "compute accounting" `Quick test_compute_accounting;
          Alcotest.test_case "quantum preemption" `Quick test_quantum_preemption_interleaves;
          Alcotest.test_case "one decision per quantum" `Quick test_slice_count;
          Alcotest.test_case "sleep wakes on time" `Quick test_sleep_wakes_on_time;
          Alcotest.test_case "sleep 0" `Quick test_sleep_zero;
          Alcotest.test_case "now and self" `Quick test_now_and_self;
          Alcotest.test_case "spawn from inside" `Quick test_spawn_from_inside;
          Alcotest.test_case "yield rotates" `Quick test_yield_rotates;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "response includes service time" `Quick
            test_rpc_response_time_includes_service;
          Alcotest.test_case "queue is fifo" `Quick test_rpc_queue_is_fifo;
          Alcotest.test_case "workers serve in parallel" `Quick
            test_rpc_multiple_workers_parallel;
          Alcotest.test_case "message metadata" `Quick test_message_metadata;
          Alcotest.test_case "poll_receive" `Quick test_poll_receive;
          Alcotest.test_case "rpc after server killed" `Quick test_rpc_after_server_killed;
          Alcotest.test_case "rpc_many gathers in order" `Quick
            test_rpc_many_gathers_in_order;
          Alcotest.test_case "rpc_many rejects empty" `Quick test_rpc_many_empty_rejected;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "fifo policy order" `Quick test_mutex_fifo_policy;
          Alcotest.test_case "with_lock exception safety" `Quick
            test_with_lock_releases_on_exception;
          Alcotest.test_case "unlock by non-owner fails the thread" `Quick
            test_unlock_not_owner_fails_thread;
        ] );
      ( "synchronization",
        [
          Alcotest.test_case "condition producer/consumer" `Quick
            test_condition_producer_consumer;
          Alcotest.test_case "wait releases the mutex" `Quick
            test_condition_wait_releases_mutex;
          Alcotest.test_case "broadcast wakes all" `Quick test_broadcast_wakes_all;
          Alcotest.test_case "signal without waiters" `Quick
            test_signal_no_waiters_is_noop;
          Alcotest.test_case "semaphore counting" `Quick test_semaphore_counting;
          Alcotest.test_case "semaphore blocks at zero" `Quick
            test_semaphore_zero_initial_blocks;
          Alcotest.test_case "fifo semaphore order survives kills" `Quick
            test_fifo_semaphore_order_with_kills;
          QCheck_alcotest.to_alcotest qcheck_waitq_model;
        ] );
      ( "join-kill",
        [
          Alcotest.test_case "join waits for exit" `Quick test_join_waits_for_exit;
          Alcotest.test_case "join on zombie" `Quick test_join_already_dead;
          Alcotest.test_case "self-join rejected" `Quick test_join_self_rejected;
          Alcotest.test_case "join transfers funding" `Quick test_join_funds_target;
          Alcotest.test_case "kill a blocked thread" `Quick test_kill_blocked_thread;
          Alcotest.test_case "kill runs lock cleanup" `Quick
            test_kill_releases_lock_via_cleanup;
          Alcotest.test_case "Killed is catchable" `Quick test_kill_survivable;
          Alcotest.test_case "killing a sleeper leaves no zombie wakeups" `Quick
            test_kill_sleeping_thread_timer_harmless;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "body exception recorded" `Quick test_body_exception_recorded;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "run is resumable" `Quick test_run_resumable;
          Alcotest.test_case "horizon mid-compute" `Quick test_horizon_mid_compute;
          Alcotest.test_case "deterministic traces" `Quick test_determinism_trace;
          Alcotest.test_case "timeline records shares" `Quick
            test_timeline_records_shares;
          Alcotest.test_case "timeline empty" `Quick test_timeline_empty;
          Alcotest.test_case "api outside kernel" `Quick test_api_outside_thread_rejected;
          Alcotest.test_case "find and list threads" `Quick test_find_thread_and_listing;
          Alcotest.test_case "validation and accessors" `Quick
            test_kernel_validation_and_accessors;
          Alcotest.test_case "compute 0 and negative" `Quick
            test_compute_zero_and_negative;
          Alcotest.test_case "semaphore validation" `Quick test_semaphore_validation;
        ] );
      ( "kill-reply",
        [
          Alcotest.test_case "reply after kill is a traced no-op" `Quick
            test_reply_after_kill_is_traced_noop;
          Alcotest.test_case "scatter reply after kill" `Quick
            test_reply_after_kill_scatter;
          Alcotest.test_case "reply to queued message from dead sender" `Quick
            test_reply_to_queued_message_from_dead_sender;
          Alcotest.test_case "late reply skips a newer request" `Quick
            test_late_reply_skips_newer_request;
          Alcotest.test_case "eviction skips a newer request" `Quick
            test_eviction_skips_newer_request;
          Alcotest.test_case "late shard skips a newer gather" `Quick
            test_late_shard_skips_newer_gather;
          Alcotest.test_case "stale request evictable" `Quick
            test_stale_request_evictable;
          Alcotest.test_case "kill during cond wait reacquires mutex" `Quick
            test_kill_during_cond_wait_reacquires;
          Alcotest.test_case "dying lock owner hands off" `Quick
            test_dying_lock_owner_hands_off;
          Alcotest.test_case "stale timer idle accounting" `Quick
            test_stale_timer_idle_accounting;
          Alcotest.test_case "invariants clean on healthy kernel" `Quick
            test_check_invariants_clean_on_healthy_kernel;
          Alcotest.test_case "invariants report corruption" `Quick
            test_check_invariants_reports_corruption;
        ] );
    ]
