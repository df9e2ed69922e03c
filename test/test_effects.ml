(* Effect dispatch: a per-slice schedule golden over every kernel effect,
   the resume-then-perform and multi-kernel cases of the handler
   registers, and join waiters. *)

open Core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string

let pending_kind (th : Types.thread) =
  match th.Types.pending with
  | Types.Not_started _ -> "not-started"
  | Compute -> "compute"
  | Sleeping -> "sleeping"
  | Waiting_recv -> "waiting-recv"
  | Waiting_reply -> "waiting-reply"
  | Waiting_replies _ -> "waiting-replies"
  | Waiting_lock -> "waiting-lock"
  | Waiting_cond -> "waiting-cond"
  | Waiting_sem -> "waiting-sem"
  | Waiting_join -> "waiting-join"
  | Ready_unit -> "ready-unit"
  | Ready_msg -> "ready-msg"
  | Ready_reply -> "ready-reply"
  | Ready_replies _ -> "ready-replies"
  | Exited -> "exited"

let why_name = function
  | Obs.Event.End_quantum -> "quantum"
  | End_yield -> "yield"
  | End_block -> "block"
  | End_exit -> "exit"
  | End_horizon -> "horizon"

(* --- schedule golden ---------------------------------------------------- *)

(* A deterministic lottery scenario that performs all 19 effects, with
   kills landing on Compute, Sleeping, Waiting_cond and Waiting_reply,
   catch-and-continue after [Killed], [Unlock]/[Reply]/[Wait]/[Rpc_many]
   errors surfaced into the body, and a self-join. Every slice end is
   one trace line: time, thread, outcome, ticks used and the pending
   state the thread was left in; the bodies' own observations are
   interleaved. *)
let scenario_trace ~cpus =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let rng = Rng.create ~seed:1515 () in
  let ls =
    if cpus = 1 then Lottery_sched.create ~rng ()
    else Lottery_sched.create ~mode:Lottery_sched.Tree_mode ~shards:cpus ~rng ()
  in
  let k = Kernel.create ~quantum:(Time.ms 10) ~cpus ~sched:(Lottery_sched.sched ls) () in
  let base = Lottery_sched.base_currency ls in
  let fund th n = ignore (Lottery_sched.fund_thread ls th ~amount:n ~from:base) in
  let log fmt =
    Printf.ksprintf
      (fun s ->
        let me = Api.self () in
        line "%8d   %s: %s" (Api.now ()) (Kernel.thread_name me) s)
      fmt
  in
  let port = Kernel.create_port k ~name:"svc" in
  let port2 = Kernel.create_port k ~name:"svc2" in
  let slow = Kernel.create_port k ~name:"slow" in
  let inbox = Kernel.create_port k ~name:"inbox" in
  let m = Kernel.create_mutex k "m" in
  let c = Kernel.create_condition k "c" in
  let m2 = Kernel.create_mutex k ~policy:Types.Lottery_wake "m2" in
  let c2 = Kernel.create_condition k "c2" in
  let sem = Kernel.create_semaphore k ~initial:1 "sem" in
  let items = Queue.create () in
  let spin name ~len ~every =
    Kernel.spawn k ~name (fun () ->
        let i = ref 0 in
        while true do
          incr i;
          Api.compute (Time.us (len + (!i mod 3 * 700)));
          if !i mod every = 0 then Api.yield ();
          if !i mod 11 = 0 then begin
            Api.compute 0;
            Api.compute (-5)
          end
        done)
  in
  let server name p =
    Kernel.spawn k ~name (fun () ->
        while true do
          let msg = Api.receive p in
          Api.compute (Time.ms 2);
          let payload = msg.Types.payload in
          Api.reply msg (payload ^ "!");
          if payload = "dup" then
            match Api.reply msg "again" with
            | () -> log "second reply accepted"
            | exception Invalid_argument e -> log "second reply refused: %s" e
        done)
  in
  let client =
    Kernel.spawn k ~name:"client" (fun () ->
        let i = ref 0 in
        while true do
          incr i;
          let req = if !i mod 3 = 0 then "dup" else Printf.sprintf "r%d" !i in
          log "rpc -> %s" (Api.rpc port req);
          Api.sleep (Time.ms 5)
        done)
  in
  let gather =
    Kernel.spawn k ~name:"gather" (fun () ->
        (match Api.rpc_many [] with
        | _ -> log "empty gather accepted"
        | exception Invalid_argument e -> log "empty gather refused: %s" e);
        for i = 1 to 4 do
          let rs = Api.rpc_many [ (port, Printf.sprintf "g%d" i); (port2, "h") ] in
          log "gather -> %s" (String.concat "," rs);
          Api.sleep (Time.ms 7)
        done)
  in
  let noter =
    Kernel.spawn k ~name:"noter" (fun () ->
        for i = 1 to 12 do
          log "note %d -> %s" i (Api.rpc inbox (Printf.sprintf "n%d" i));
          Api.sleep (Time.ms 11)
        done)
  in
  let poller =
    Kernel.spawn k ~name:"poller" (fun () ->
        for _ = 1 to 30 do
          (match Api.poll_receive inbox with
          | Some msg ->
              log "polled %s" msg.Types.payload;
              Api.reply msg "seen"
          | None -> log "poll empty");
          Api.sleep (Time.ms 9)
        done)
  in
  let producer =
    Kernel.spawn k ~name:"producer" (fun () ->
        let n = ref 0 in
        while true do
          incr n;
          Api.with_lock m (fun () ->
              Queue.push !n items;
              if !n mod 4 = 0 then Api.broadcast c else Api.signal c);
          (match Api.unlock m with
          | () -> log "stray unlock accepted"
          | exception Invalid_argument e -> if !n = 1 then log "stray unlock refused: %s" e);
          Api.sleep (Time.ms 3)
        done)
  in
  let consumer name =
    Kernel.spawn k ~name (fun () ->
        while true do
          let v =
            Api.with_lock m (fun () ->
                while Queue.is_empty items do
                  Api.wait c m
                done;
                Queue.pop items)
          in
          if v mod 5 = 0 then log "consumed %d" v;
          Api.compute (Time.us 1500)
        done)
  in
  let bad_waiter =
    Kernel.spawn k ~name:"bad-waiter" (fun () ->
        match Api.wait c m with
        | () -> log "wait without the mutex accepted"
        | exception Invalid_argument e -> log "wait without the mutex refused: %s" e)
  in
  let sem_user name =
    Kernel.spawn k ~name (fun () ->
        for _ = 1 to 6 do
          Api.sem_wait sem;
          Api.compute (Time.ms 4);
          Api.sem_post sem;
          Api.sleep (Time.ms 2)
        done;
        log "semaphore rounds done")
  in
  let parent =
    Kernel.spawn k ~name:"parent" (fun () ->
        let me = Api.self () in
        (match Api.join me with
        | () -> log "self-join accepted"
        | exception Invalid_argument e -> log "self-join refused: %s" e);
        let child =
          Api.spawn "child" (fun () ->
              Api.compute (Time.ms 15);
              log "child done")
        in
        Api.join child;
        log "joined child";
        Api.join child;
        log "joined child again")
  in
  let kv_compute =
    Kernel.spawn k ~name:"kv-compute" (fun () ->
        match
          while true do
            Api.compute (Time.seconds 1)
          done
        with
        | () -> ()
        | exception Types.Killed ->
            log "caught Killed, carrying on";
            Api.compute (Time.ms 3);
            Api.sleep (Time.ms 4);
            log "finished after the kill")
  in
  let kv_sleep =
    Kernel.spawn k ~name:"kv-sleep" (fun () -> Api.sleep (Time.ms 500))
  in
  let kv_wait =
    Kernel.spawn k ~name:"kv-wait" (fun () ->
        Api.lock m2;
        (match Api.wait c2 m2 with
        | () -> log "woken"
        | exception Types.Killed ->
            let me = Api.self () in
            log "wait killed, holds m2: %b"
              (match m2.Types.owner with Some o -> o == me | None -> false));
        Api.unlock m2;
        Api.sleep (Time.ms 2))
  in
  let slow_srv =
    Kernel.spawn k ~name:"slow-srv" (fun () ->
        while true do
          let msg = Api.receive slow in
          Api.compute (Time.ms 60);
          Api.reply msg "late"
        done)
  in
  let kv_reply =
    Kernel.spawn k ~name:"kv-reply" (fun () ->
        match Api.rpc slow "wait" with
        | r -> log "slow reply %s" r
        | exception Types.Killed -> log "rpc killed while waiting for the reply")
  in
  let srv = server "srv" port and srv2 = server "srv2" port2 in
  let spins = [ spin "spin-a" ~len:7000 ~every:3; spin "spin-b" ~len:13000 ~every:5 ] in
  let consumers = [ consumer "cons-1"; consumer "cons-2" ] in
  let sem_users = [ sem_user "sem-1"; sem_user "sem-2"; sem_user "sem-3" ] in
  List.iteri (fun i th -> fund th (100 * (i + 1))) spins;
  List.iter (fun th -> fund th 150) [ srv; srv2; slow_srv ];
  List.iter (fun th -> fund th 80) consumers;
  List.iteri (fun i th -> fund th (60 * (i + 1))) sem_users;
  List.iter
    (fun th -> fund th 50)
    [ client; gather; noter; poller; producer; bad_waiter; parent ];
  List.iter (fun th -> fund th 120) [ kv_compute; kv_sleep; kv_wait; kv_reply ];
  (* one kill per victim, the first boundary after [at] that finds it in
     the named pending state *)
  let kills =
    ref
      [
        (kv_compute, Time.ms 40, "compute");
        (kv_sleep, Time.ms 60, "sleeping");
        (kv_wait, Time.ms 80, "waiting-cond");
        (kv_reply, Time.ms 100, "waiting-reply");
      ]
  in
  Kernel.set_pre_select k
    (Some
       (fun () ->
         kills :=
           List.filter
             (fun (th, at, kind) ->
               if Kernel.now k >= at && pending_kind th = kind then begin
                 line "%8d   kill %s in %s" (Kernel.now k) (Kernel.thread_name th) kind;
                 Kernel.kill k th;
                 false
               end
               else true)
             !kills));
  (* name -> first thread created with it: every thread spawned so far,
     then each later spawn as its event arrives *)
  let by_name = Hashtbl.create 32 in
  let remember th =
    let name = Kernel.thread_name th in
    if not (Hashtbl.mem by_name name) then Hashtbl.add by_name name th
  in
  List.iter remember (Kernel.threads k);
  let sub =
    Obs.Bus.subscribe ~name:"effects-golden" (Kernel.bus k) (fun time ev ->
        match ev with
        | Obs.Event.Spawn { who } ->
            List.iter
              (fun th -> if Kernel.thread_id th = who.Obs.Event.tid then remember th)
              (Kernel.threads k)
        | Obs.Event.Preempt { who; used; why; _ } ->
            let kind =
              match Hashtbl.find_opt by_name who.Obs.Event.tname with
              | Some th -> pending_kind th
              | None -> "?"
            in
            line "%8d %s %s used=%d pending=%s" time who.Obs.Event.tname
              (why_name why) used kind
        | _ -> ())
  in
  let s = Kernel.run k ~until:(Time.ms 600) in
  Obs.Bus.unsubscribe sub;
  line "ended=%d idle=%d slices=%d deadlocked=%b" s.Types.ended_at s.idle_ticks
    s.slices s.deadlocked;
  List.iter
    (fun (th, e) ->
      line "failed %s: %s" (Kernel.thread_name th) (Printexc.to_string e))
    (Kernel.failures k);
  line "killed %d" (Kernel.kill_count k);
  List.iter
    (fun th ->
      line "cpu %s %d %s" (Kernel.thread_name th) (Kernel.cpu_time th) (pending_kind th))
    (Kernel.threads k);
  line "audit: %s" (String.concat "; " (Kernel.check_invariants k));
  Buffer.contents buf

let golden_output () =
  "== 1 cpu ==\n" ^ scenario_trace ~cpus:1 ^ "== 2 cpus ==\n" ^ scenario_trace ~cpus:2

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_golden () =
  checks "effects schedule unchanged"
    (read_file
       (Filename.concat (Filename.dirname Sys.executable_name) "effects_golden.expected"))
    (golden_output ())

(* --- handler registers ---------------------------------------------- *)

let rr_kernel ?(quantum = Time.ms 100) () =
  Kernel.create ~quantum ~sched:(Round_robin.sched (Round_robin.create ())) ()

(* A handler that answers at once resumes the fiber, which may perform its
   next request before the handler returns; that request must see its own
   payload. Each resuming request is followed by a [Compute] of a length
   no other request uses. *)
let test_resume_then_compute () =
  let k = rr_kernel () in
  let sm = Kernel.create_semaphore k ~initial:0 "s" in
  let c = Kernel.create_condition k "c" in
  let port = Kernel.create_port k ~name:"p" in
  let took = ref [] in
  let timed label len f =
    let t0 = Api.now () in
    f ();
    Api.compute (Time.us len);
    took := (label, Api.now () - t0) :: !took
  in
  let _srv =
    Kernel.spawn k ~name:"srv" (fun () ->
        let msg = Api.receive port in
        timed "reply" 1300 (fun () -> Api.reply msg "ok"))
  in
  let _waiter =
    Kernel.spawn k ~name:"waiter" (fun () ->
        Api.sem_wait sm;
        timed "woken" 1700 ignore)
  in
  let main =
    Kernel.spawn k ~name:"main" (fun () ->
        timed "sem_post" 700 (fun () -> Api.sem_post sm);
        timed "signal" 1100 (fun () -> Api.signal c);
        timed "broadcast" 1900 (fun () -> Api.broadcast c);
        timed "now" 900 (fun () -> ignore (Api.now ()));
        timed "self" 500 (fun () -> ignore (Api.self ()));
        timed "spawn" 300 (fun () ->
            ignore (Api.spawn "kid" (fun () -> Api.compute (Time.ms 50))));
        ignore (Api.rpc port "q"))
  in
  let s = Kernel.run k ~until:(Time.seconds 1) in
  check
    Alcotest.(list (pair string int))
    "each compute charged its own length"
    [
      ("sem_post", 700); ("signal", 1100); ("broadcast", 1900); ("now", 900);
      ("self", 500); ("spawn", 300); ("reply", 1300); ("woken", 1700);
    ]
    (List.rev !took);
  checki "main's cpu" (700 + 1100 + 1900 + 900 + 500 + 300) (Kernel.cpu_time main);
  checki "every thread finished" 0 (Kernel.live_thread_count k);
  checkb "no deadlock" false s.Types.deadlocked

(* A small world of its own: lottery-scheduled computes of distinct
   lengths, sleeps, RPCs and a semaphore, traced per slice. *)
let world ~seed ~scale =
  let rng = Rng.create ~seed () in
  let ls = Lottery_sched.create ~rng () in
  let k = Kernel.create ~quantum:(Time.ms 10) ~sched:(Lottery_sched.sched ls) () in
  let base = Lottery_sched.base_currency ls in
  let fund th n = ignore (Lottery_sched.fund_thread ls th ~amount:n ~from:base) in
  let port = Kernel.create_port k ~name:"p" in
  let sm = Kernel.create_semaphore k ~initial:1 "s" in
  let buf = Buffer.create 1024 in
  fund
    (Kernel.spawn k ~name:"srv" (fun () ->
         while true do
           let msg = Api.receive port in
           Api.compute (Time.us (900 * scale));
           Api.reply msg "ok"
         done))
    100;
  for i = 1 to 4 do
    fund
      (Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun () ->
           while true do
             Api.compute (Time.us ((1000 * i) + (137 * scale)));
             ignore (Api.rpc port "x");
             Api.sem_wait sm;
             Api.compute (Time.us (300 * scale));
             Api.sem_post sm;
             Api.sleep (Time.us (2000 * i * scale))
           done))
      (50 * i)
  done;
  ignore
    (Obs.Bus.subscribe ~name:"trace" (Kernel.bus k) (fun time ev ->
         match ev with
         | Obs.Event.Preempt { who; used; why; _ } ->
             Printf.bprintf buf "%d %s %s %d\n" time who.Obs.Event.tname (why_name why)
               used
         | _ -> ()));
  (k, buf)

let step k i = ignore (Kernel.run k ~until:(i * Time.ms 10))

let solo ~seed ~scale =
  let k, buf = world ~seed ~scale in
  for i = 1 to 60 do
    step k i
  done;
  Buffer.contents buf

(* Registers live in the kernel record, so two kernels stepped on one
   domain — in turns, or one driven from inside the other's thread — each
   replay exactly their solo schedule. *)
let test_two_kernels () =
  let a_solo = solo ~seed:11 ~scale:1 and b_solo = solo ~seed:12 ~scale:3 in
  checkb "the worlds differ" true (a_solo <> b_solo);
  let ka, ta = world ~seed:11 ~scale:1 and kb, tb = world ~seed:12 ~scale:3 in
  for i = 1 to 60 do
    step ka i;
    step kb i
  done;
  checks "A alternated" a_solo (Buffer.contents ta);
  checks "B alternated" b_solo (Buffer.contents tb);
  let ka, ta = world ~seed:11 ~scale:1 and kb, tb = world ~seed:12 ~scale:3 in
  let host = rr_kernel () in
  ignore
    (Kernel.spawn host ~name:"stepper" (fun () ->
         for i = 1 to 60 do
           Api.compute (Time.ms 1);
           step ka i;
           Api.yield ();
           step kb i
         done));
  ignore (Kernel.run host ~until:(Time.seconds 10));
  checks "A nested" a_solo (Buffer.contents ta);
  checks "B nested" b_solo (Buffer.contents tb)

(* Once a thread is reaped nothing in the kernel reaches it: not the
   registers its last requests went through, not the thread table. *)
(* [fillers] extra threads are spawned before the victim. With none it is
   the fifth thread; with twelve it is the seventeenth, whose spawn grows
   the 16-cell thread table, so the cells growth leaves vacant must not
   hold it. *)
let reaped_victim_collected ~fillers =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let port = Kernel.create_port k ~name:"p" in
  let m = Kernel.create_mutex k "m" in
  let c = Kernel.create_condition k "c" in
  let sm = Kernel.create_semaphore k ~initial:1 "s" in
  ignore (Kernel.spawn k ~name:"x" (fun () -> ()));
  ignore (Kernel.spawn k ~name:"kid" (fun () -> ()));
  ignore
    (Kernel.spawn k ~name:"srv" (fun () ->
         while true do
           let msg = Api.receive port in
           Api.reply msg "ok"
         done));
  (* keeps the CPU busy without performing again, so the victim's are
     the last requests the registers see *)
  ignore (Kernel.spawn k ~name:"bg" (fun () -> Api.compute (Time.seconds 10)));
  for _ = 1 to fillers do
    ignore (Kernel.spawn k ~name:"x" (fun () -> ()))
  done;
  let w = Weak.create 1 in
  let spawn_victim () =
    let th =
      Kernel.spawn k ~name:"x" (fun () ->
          let kid = Api.spawn "kid" (fun () -> Api.compute (Time.ms 1)) in
          Api.join kid;
          Api.join kid;
          Api.with_lock m (fun () -> Api.signal c);
          Api.sem_wait sm;
          Api.sem_post sm;
          ignore (Api.rpc port "hi");
          ignore (Api.rpc_many [ (port, "a") ]);
          Api.compute (Time.ms 3);
          Api.sleep (Time.ms 2);
          Api.yield ();
          ignore (Api.self ()))
    in
    Weak.set w 0 (Some th)
  in
  spawn_victim ();
  ignore (Kernel.run k ~until:(Time.ms 300));
  Gc.full_major ();
  checkb
    (Printf.sprintf "reaped thread collected (%d fillers)" fillers)
    true
    (Option.is_none (Weak.get w 0));
  (* the kernel itself stays live across the collection *)
  checki "srv and bg still live" 2 (Kernel.live_thread_count k)

(* A victim killed while it waits catches [Killed] and exits, so it is
   reaped and not kept as a failure. Whatever named it while it waited
   must let go: its slot's wait record (reset at reap), the port's waiter
   queue, the message its request left with the server (the server's
   record drops a delivered message when the server resumes), and the
   timer heap, which drops a killed sleeper's stale entry only when the
   entry reaches the top (here after [nap]'s earlier deadline pops) and
   must not keep the dropped value in a vacated cell. *)
let killed_waiter_collected kind =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let port = Kernel.create_port k ~name:"p" in
  let w = Weak.create 1 in
  let spawn_victim () =
    let wait () =
      match kind with
      | "sleeping" -> Api.sleep (Time.ms 100)
      | "waiting-recv" -> ignore (Api.receive port)
      | _ -> ignore (Api.rpc port "hi")
    in
    let th =
      Kernel.spawn k ~name:"victim" (fun () -> try wait () with Types.Killed -> ())
    in
    Weak.set w 0 (Some th);
    th
  in
  let victim = spawn_victim () in
  ignore (Kernel.spawn k ~name:"nap" (fun () -> Api.sleep (Time.ms 50)));
  if kind = "waiting-reply" then
    ignore
      (Kernel.spawn k ~name:"srv" (fun () ->
           (* picks the request up after the kill, replies into the void
              and stays live, blocked in its next receive *)
           Api.sleep (Time.ms 20);
           while true do
             Api.reply (Api.receive port) "ok"
           done));
  ignore (Kernel.spawn k ~name:"bg" (fun () -> Api.compute (Time.seconds 10)));
  ignore (Kernel.run k ~until:(Time.ms 5));
  checks "the victim waits" kind (pending_kind victim);
  Kernel.kill k victim;
  checki "the victim is reaped" (-1) (Kernel.thread_slot victim);
  ignore (Kernel.run k ~until:(Time.ms 300));
  check Alcotest.(list string) "audit clean" [] (Kernel.check_invariants k);
  checki "the victim exited cleanly" 0 (List.length (Kernel.failures k));
  Gc.full_major ();
  checkb (Printf.sprintf "victim killed while %s collected" kind) true
    (Option.is_none (Weak.get w 0));
  (* the kernel itself stays live across the collection *)
  checki "bg (and srv) still live"
    (if kind = "waiting-reply" then 2 else 1)
    (Kernel.live_thread_count k)

let test_registers_release_reaped () =
  reaped_victim_collected ~fillers:0;
  reaped_victim_collected ~fillers:12;
  List.iter killed_waiter_collected [ "sleeping"; "waiting-recv"; "waiting-reply" ]

(* The wait states are constants whose objects live in the slot's wait
   record, so a state installed without one is a kernel bug the audit must
   name rather than trip over. *)
let test_audit_wait_without_record () =
  let k = rr_kernel () in
  let th = Kernel.spawn k ~name:"forged" (fun () -> ()) in
  check Alcotest.(list string) "clean before" [] (Kernel.check_invariants k);
  th.Types.state <- Types.Blocked;
  th.Types.pending <- Types.Waiting_lock;
  checkb "the missing record is reported" true
    (List.mem "forged: pending state needs a wait record but its slot has none"
       (Kernel.check_invariants k))

(* Every fiber runs under the kernel's one handler, and the kernel names
   the performer before it resumes a fiber. Three resumes come from outside
   [advance]: a drop-oldest eviction unwinds the victim inside the
   sender's request, a kill unwinds its victim, and a kill can be issued
   from another thread's body. Each victim's handler must see itself as
   the performer, and so must the thread that was running before. *)
let test_drop_oldest_victim_performs () =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let port = Kernel.create_port k ~capacity:1 ~shed:Types.Drop_oldest ~name:"p" in
  let seen = ref None and answer = ref "" in
  let victim =
    Kernel.spawn k ~name:"victim" (fun () ->
        match Api.rpc port "v" with
        | _ -> Alcotest.fail "the victim's request should have been evicted"
        | exception Types.Rejected _ ->
            seen := Some (Api.self ());
            Api.compute (Time.ms 3))
  in
  let sender = Kernel.spawn k ~name:"sender" (fun () -> answer := Api.rpc port "s") in
  ignore
    (Kernel.spawn k ~name:"srv" (fun () ->
         (* both requests reach the full port before anyone receives *)
         Api.sleep (Time.ms 1);
         let msg = Api.receive port in
         Api.reply msg (msg.Types.payload ^ "!")));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "self is the victim" true (Option.fold ~none:false ~some:(( == ) victim) !seen);
  checki "the victim's compute charged to it" (Time.ms 3) (Kernel.cpu_time victim);
  checki "the sender computed nothing" 0 (Kernel.cpu_time sender);
  checks "the sender's reply" "s!" !answer;
  checki "one shed" 1 (Kernel.port_shed_count port);
  checki "no failures" 0 (List.length (Kernel.failures k));
  checki "every thread finished" 0 (Kernel.live_thread_count k)

let test_killed_handler_performs () =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let m = Kernel.create_mutex k "m" in
  let seen = ref None in
  let t =
    Kernel.spawn k ~name:"t" (fun () ->
        Api.lock m;
        match Api.sleep (Time.seconds 1) with
        | () -> Alcotest.fail "the sleep should have been killed"
        | exception Types.Killed ->
            seen := Some (Api.self ());
            Api.unlock m;
            Api.compute (Time.ms 4))
  in
  (* mid-compute when the kill lands, so the last performer is not [t] *)
  let bg = Kernel.spawn k ~name:"bg" (fun () -> Api.compute (Time.ms 100)) in
  ignore (Kernel.run k ~until:(Time.ms 25));
  Kernel.kill k t;
  checkb "self is the killed thread" true (Option.fold ~none:false ~some:(( == ) t) !seen);
  checkb "its unlock released the mutex" true (Option.is_none m.Types.owner);
  check Alcotest.(list string) "audit clean after the kill" [] (Kernel.check_invariants k);
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checki "the handler's compute charged to it" (Time.ms 4) (Kernel.cpu_time t);
  checki "bg's compute charged to bg" (Time.ms 100) (Kernel.cpu_time bg);
  checki "no failures" 0 (List.length (Kernel.failures k));
  checki "every thread finished" 0 (Kernel.live_thread_count k)

let test_kill_from_body () =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let caught = ref None and after = ref [] in
  let sleeper body =
    Kernel.spawn k ~name:"sleeper" (fun () -> body (fun () -> Api.sleep (Time.seconds 1)))
  in
  (* one victim catches [Killed] and performs; the other dies of it *)
  let survivor =
    sleeper (fun nap ->
        try nap ()
        with Types.Killed ->
          caught := Some (Api.self ());
          Api.compute (Time.ms 2))
  in
  let doomed = sleeper (fun nap -> nap ()) in
  let killer =
    Kernel.spawn k ~name:"killer" (fun () ->
        Api.sleep (Time.ms 5);
        Kernel.kill k survivor;
        after := Api.self () :: !after;
        Kernel.kill k doomed;
        after := Api.self () :: !after;
        Api.compute (Time.ms 3))
  in
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "the survivor saw itself" true
    (Option.fold ~none:false ~some:(( == ) survivor) !caught);
  checkb "the killer saw itself after each kill" true
    (List.length !after = 2 && List.for_all (( == ) killer) !after);
  checki "the survivor's compute" (Time.ms 2) (Kernel.cpu_time survivor);
  checki "the killer's compute" (Time.ms 3) (Kernel.cpu_time killer);
  checkb "only the doomed thread died of the kill" true
    (Kernel.failures k = [] && Kernel.kill_count k = 1
    && Kernel.thread_state doomed = Types.Zombie);
  checki "every thread finished" 0 (Kernel.live_thread_count k)

(* --- join waiters ---------------------------------------------------- *)

let wake_log k =
  let woken = ref [] in
  ignore
    (Obs.Bus.subscribe ~name:"wakes" (Kernel.bus k) (fun _ ev ->
         match ev with
         | Obs.Event.Wake { who } -> woken := who.Obs.Event.tname :: !woken
         | _ -> ()));
  woken

let joiners_world n =
  let k = rr_kernel ~quantum:(Time.ms 10) () in
  let target = Kernel.spawn k ~name:"target" (fun () -> Api.sleep (Time.ms 50)) in
  let joiners =
    List.init n (fun i ->
        Kernel.spawn k ~name:(Printf.sprintf "j%02d" i) (fun () -> Api.join target))
  in
  (k, target, joiners)

let test_join_fifo () =
  let k, target, joiners = joiners_world 64 in
  ignore (Kernel.run k ~until:(Time.ms 20));
  checki "all queued" 64 (Waitq.length target.Types.joiners);
  let woken = wake_log k in
  ignore (Kernel.run k ~until:(Time.ms 200));
  check
    Alcotest.(list string)
    "woken in arrival order"
    (List.map Kernel.thread_name joiners)
    (List.filter (fun n -> n <> "target") (List.rev !woken));
  checki "all done" 0 (Kernel.live_thread_count k);
  check Alcotest.(list string) "audit clean" [] (Kernel.check_invariants k)

let test_join_killed () =
  let k, target, joiners = joiners_world 8 in
  ignore (Kernel.run k ~until:(Time.ms 20));
  let victim = List.nth joiners 3 in
  Kernel.kill k victim;
  checki "victim left the queue" 7 (Waitq.length target.Types.joiners);
  check Alcotest.(list string) "audit clean after the kill" [] (Kernel.check_invariants k);
  let woken = wake_log k in
  ignore (Kernel.run k ~until:(Time.ms 200));
  check
    Alcotest.(list string)
    "the rest woken in arrival order"
    (List.filter_map
       (fun th -> if th == victim then None else Some (Kernel.thread_name th))
       joiners)
    (List.filter (fun n -> n <> "target") (List.rev !woken));
  checkb "the victim died of the kill" true
    (Kernel.failures k = [] && Kernel.kill_count k = 1
    && Kernel.thread_state victim = Types.Zombie);
  checki "all done" 0 (Kernel.live_thread_count k)

let () =
  match Sys.argv with
  | [| _; "--print-golden" |] -> print_string (golden_output ())
  | _ ->
      Alcotest.run "effects"
        [
          ("golden", [ Alcotest.test_case "every effect, 1 and 2 cpus" `Quick test_golden ]);
          ( "registers",
            [
              Alcotest.test_case "resume then compute" `Quick test_resume_then_compute;
              Alcotest.test_case "two kernels on one domain" `Quick test_two_kernels;
              Alcotest.test_case "reaped thread unreachable" `Quick
                test_registers_release_reaped;
              Alcotest.test_case "drop-oldest victim performs" `Quick
                test_drop_oldest_victim_performs;
              Alcotest.test_case "killed handler performs" `Quick
                test_killed_handler_performs;
              Alcotest.test_case "kill from a thread's body" `Quick test_kill_from_body;
              Alcotest.test_case "audit names a wait state without a record" `Quick
                test_audit_wait_without_record;
            ] );
          ( "join",
            [
              Alcotest.test_case "64 joiners wake in arrival order" `Quick test_join_fifo;
              Alcotest.test_case "killed joiner" `Quick test_join_killed;
            ] );
        ]
