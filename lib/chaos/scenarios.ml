open Lotto_sim
open Lotto_sim.Types
module LS = Lotto_sched.Lottery_sched

type ctx = { kernel : Kernel.t; ls : LS.t; point : unit -> unit }

type t = { name : string; horizon : Time.t; build : ctx -> unit }

let fund ctx th amount =
  ignore (LS.fund_thread ctx.ls th ~amount ~from:(LS.base_currency ctx.ls))

(* Every scenario terminates on its own (bounded loops) well before its
   horizon when no fault fires; injected kills may strand peers on wait
   queues, which the soak driver tolerates as a legitimate deadlock. All
   state is scenario-local — no module-level mutables. *)

let rpc =
  {
    name = "rpc";
    horizon = Time.seconds 30;
    build =
      (fun ctx ->
        let k = ctx.kernel in
        let p = Kernel.create_port k ~name:"svc" in
        for i = 1 to 2 do
          let srv =
            Kernel.spawn k ~name:(Printf.sprintf "server%d" i) (fun () ->
                for _ = 1 to 12 do
                  let m = Api.receive p in
                  ctx.point ();
                  Api.compute_ms 2;
                  Api.reply m ("ok:" ^ m.payload)
                done)
          in
          fund ctx srv 300
        done;
        for i = 1 to 3 do
          let c =
            Kernel.spawn k ~name:(Printf.sprintf "client%d" i) (fun () ->
                for j = 1 to 8 do
                  ctx.point ();
                  ignore (Api.rpc p (Printf.sprintf "c%d-%d" i j));
                  Api.compute_ms 1
                done)
          in
          fund ctx c (100 * i)
        done);
  }

let scatter =
  {
    name = "scatter";
    horizon = Time.seconds 30;
    build =
      (fun ctx ->
        let k = ctx.kernel in
        let ports =
          List.init 3 (fun i -> Kernel.create_port k ~name:(Printf.sprintf "p%d" i))
        in
        List.iteri
          (fun i p ->
            let srv =
              Kernel.spawn k ~name:(Printf.sprintf "server%d" i) (fun () ->
                  for _ = 1 to 6 do
                    let m = Api.receive p in
                    ctx.point ();
                    Api.compute_ms (1 + i);
                    Api.reply m "ok"
                  done)
            in
            fund ctx srv 200)
          ports;
        for i = 1 to 2 do
          let c =
            Kernel.spawn k ~name:(Printf.sprintf "client%d" i) (fun () ->
                for j = 1 to 3 do
                  ctx.point ();
                  ignore
                    (Api.rpc_many
                       (List.map (fun p -> (p, Printf.sprintf "c%d-%d" i j)) ports));
                  Api.compute_ms 1
                done)
          in
          fund ctx c 150
        done);
  }

let mutex =
  {
    name = "mutex";
    horizon = Time.seconds 30;
    build =
      (fun ctx ->
        let k = ctx.kernel in
        let m = Kernel.create_mutex k ~policy:Lottery_wake "m" in
        for i = 1 to 4 do
          let w =
            Kernel.spawn k ~name:(Printf.sprintf "worker%d" i) (fun () ->
                for _ = 1 to 6 do
                  Api.with_lock m (fun () ->
                      ctx.point ();
                      Api.compute_ms 2);
                  Api.compute_ms 1
                done)
          in
          fund ctx w (50 * i)
        done);
  }

let cond =
  {
    name = "cond";
    horizon = Time.seconds 30;
    build =
      (fun ctx ->
        let k = ctx.kernel in
        let m = Kernel.create_mutex k "m" in
        let c = Kernel.create_condition k ~policy:Lottery_wake "items" in
        let items = ref 0 in
        for i = 1 to 2 do
          let prod =
            Kernel.spawn k ~name:(Printf.sprintf "producer%d" i) (fun () ->
                for _ = 1 to 8 do
                  Api.compute_ms 1;
                  ctx.point ();
                  Api.with_lock m (fun () ->
                      incr items;
                      Api.signal c)
                done)
          in
          fund ctx prod 200
        done;
        for i = 1 to 3 do
          let cons =
            Kernel.spawn k ~name:(Printf.sprintf "consumer%d" i) (fun () ->
                for _ = 1 to 4 do
                  Api.with_lock m (fun () ->
                      while !items = 0 do
                        Api.wait c m
                      done;
                      decr items);
                  ctx.point ();
                  Api.compute_ms 1
                done)
          in
          fund ctx cons 100
        done);
  }

let sem =
  {
    name = "sem";
    horizon = Time.seconds 30;
    build =
      (fun ctx ->
        let k = ctx.kernel in
        let s = Kernel.create_semaphore k ~policy:Lottery_wake ~initial:2 "pool" in
        for i = 1 to 4 do
          let w =
            Kernel.spawn k ~name:(Printf.sprintf "user%d" i) (fun () ->
                for _ = 1 to 5 do
                  Api.sem_wait s;
                  ctx.point ();
                  Api.compute_ms 2;
                  Api.sem_post s
                done)
          in
          fund ctx w (60 * i)
        done);
  }

(* The FIFO wait-queue path (the [sem] scenario above only takes the
   lottery pick): consumers queue on a zero-permit FIFO semaphore and are
   handed permits head first, while kills unhook waiters mid-queue and
   perturbation rotates the queue. Posts match the consumers' total demand,
   so an unfaulted run drains exactly. *)
let sem_fifo =
  {
    name = "sem-fifo";
    horizon = Time.seconds 30;
    build =
      (fun ctx ->
        let k = ctx.kernel in
        let s = Kernel.create_semaphore k ~initial:0 "queue" in
        for i = 1 to 6 do
          let c =
            Kernel.spawn k ~name:(Printf.sprintf "consumer%d" i) (fun () ->
                for _ = 1 to 4 do
                  Api.sem_wait s;
                  ctx.point ();
                  Api.compute_ms 1
                done)
          in
          fund ctx c (40 * i)
        done;
        for i = 1 to 2 do
          let p =
            Kernel.spawn k ~name:(Printf.sprintf "producer%d" i) (fun () ->
                for _ = 1 to 12 do
                  Api.compute_ms 1;
                  ctx.point ();
                  Api.sem_post s
                done)
          in
          fund ctx p 100
        done);
  }

let service =
  {
    name = "service";
    horizon = Time.seconds 30;
    build =
      (fun ctx ->
        let k = ctx.kernel in
        (* worker pool behind a bounded drop-oldest port: the offered load
           overruns the queue, so admission control sheds while the
           injector kills workers and clients mid-flight. Each surviving
           client closes its own books — every request it issued must end
           served or shed; anything else is a real accounting bug. *)
        let p = Kernel.create_port ~capacity:4 ~shed:Drop_oldest k ~name:"svc" in
        for i = 1 to 3 do
          let srv =
            Kernel.spawn k ~name:(Printf.sprintf "worker%d" i) (fun () ->
                for _ = 1 to 10 do
                  let m = Api.receive p in
                  ctx.point ();
                  Api.compute_ms 3;
                  Api.reply m "ok"
                done)
          in
          fund ctx srv 300
        done;
        for i = 1 to 4 do
          let c =
            Kernel.spawn k ~name:(Printf.sprintf "client%d" i) (fun () ->
                let served = ref 0 and shed = ref 0 in
                for j = 1 to 8 do
                  ctx.point ();
                  (match Api.rpc p (Printf.sprintf "c%d-%d" i j) with
                  | (_ : string) -> incr served
                  | exception Rejected _ -> incr shed);
                  Api.compute_ms 1
                done;
                (* a killed client never reaches this line (Killed unwinds
                   it), so the check only fires for clients that ran their
                   full loop — where it must hold exactly *)
                if !served + !shed <> 8 then
                  failwith "service: request neither served nor shed")
          in
          fund ctx c (50 * i)
        done);
  }

let all = [ rpc; scatter; mutex; cond; sem; sem_fifo; service ]

(* The historical reply-after-kill bug, reintroduced on purpose: this
   server front-end raises into the server whenever the client died before
   the reply — exactly what [Api.reply] did before it learned to drop.
   Excluded from {!all}; exists so tests can prove the soak driver CATCHES
   the bug (a non-[Killed] server failure) rather than silently passing. *)
let buggy_reply (m : message) result =
  (match m.sender.state with
  | Zombie -> invalid_arg "Api.reply: sender is not awaiting a reply"
  | _ -> ());
  Api.reply m result

let rpc_buggy =
  {
    name = "rpc-buggy";
    horizon = Time.seconds 30;
    build =
      (fun ctx ->
        let k = ctx.kernel in
        let p = Kernel.create_port k ~name:"svc" in
        for i = 1 to 2 do
          let srv =
            Kernel.spawn k ~name:(Printf.sprintf "server%d" i) (fun () ->
                for _ = 1 to 12 do
                  let m = Api.receive p in
                  ctx.point ();
                  (* long service window so the client often dies mid-request *)
                  Api.sleep_ms 20;
                  Api.compute_ms 2;
                  buggy_reply m ("ok:" ^ m.payload)
                done)
          in
          fund ctx srv 300
        done;
        for i = 1 to 3 do
          let c =
            Kernel.spawn k ~name:(Printf.sprintf "client%d" i) (fun () ->
                for j = 1 to 8 do
                  ctx.point ();
                  ignore (Api.rpc p (Printf.sprintf "c%d-%d" i j));
                  Api.compute_ms 1
                done)
          in
          fund ctx c (100 * i)
        done);
  }

let find name = List.find_opt (fun s -> s.name = name) (rpc_buggy :: all)
