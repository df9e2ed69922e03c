open Lotto_sim
open Lotto_sim.Types
module LS = Lotto_sched.Lottery_sched
module Svc = Lotto_service

type ctx = {
  kernel : Kernel.t;
  ls : LS.t;
  rng : Lotto_prng.Rng.t;
  point : unit -> unit;
  audit : (unit -> string list) -> unit;
}

type t = { name : string; horizon : Time.t; build : ctx -> unit }

let fund ctx th amount =
  ignore (LS.fund_thread ctx.ls th ~amount ~from:(LS.base_currency ctx.ls))

(* Every scenario but [service] terminates on its own (bounded loops) well
   before its horizon when no fault fires; injected kills may strand peers
   on wait queues, which the soak tolerates as a legitimate
   deadlock. All state is scenario-local — no module-level mutables. *)

(* Two servers answer three clients' synchronous RPCs on one port; [serve]
   is what a server does with a received message. *)
let rpc_world name ~serve =
  {
    name;
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
                  serve m
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

let rpc =
  rpc_world "rpc" ~serve:(fun m ->
      Api.compute_ms 2;
      Api.reply m ("ok:" ^ m.payload))

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

(* The service stack itself, built by [Service.build]: tenant A (share
   900, Poisson 150/s, two workers behind a reject-new port of 4, 4 stubs)
   beside tenant B (share 100, Poisson 400/s, one worker behind a
   drop-oldest port of 2), whose 8 stubs outnumber its port and worker so
   it sheds by eviction. Both do one I/O per request on a 2 ms device.
   Its threads run to the horizon; the world's own books are its check. *)
let service =
  let horizon = Time.seconds 1 in
  {
    name = "service";
    horizon;
    build =
      (fun ctx ->
        let spec = Svc.Tenant.spec ~io_per_req:1 in
        let cfg =
          Svc.Service.config ~horizon ~io_slot:(Time.ms 2)
            [
              spec ~share:900 ~arrivals:(Svc.Arrivals.Poisson 150.) ~capacity:4
                ~workers:2 ~stubs:4 "A";
              spec ~share:100 ~arrivals:(Svc.Arrivals.Poisson 400.)
                ~shed:Drop_oldest ~capacity:2 ~workers:1 ~stubs:8 "B";
            ]
        in
        let w = Svc.Service.build ~ls:ctx.ls ~rng:ctx.rng ctx.kernel cfg in
        ctx.audit (fun () -> Svc.Service.check w));
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
  rpc_world "rpc-buggy" ~serve:(fun m ->
      (* long service window so the client often dies mid-request *)
      Api.sleep_ms 20;
      Api.compute_ms 2;
      buggy_reply m ("ok:" ^ m.payload))

let find name = List.find_opt (fun s -> s.name = name) (rpc_buggy :: all)
