open Lotto_sim
module Ls = Lotto_sched.Lottery_sched

(* one transient spawned per [period]; the oldest beyond [keep] killed *)
let period = Time.ms 10
let keep = 32

type t = {
  kernel : Kernel.t;
  ls : Ls.t;
  port : Types.port;
  transients : Types.thread Queue.t;  (* live transients, oldest first *)
  mutable spawned : int;
  mutable kills : int;
}

let create ls kernel =
  let port = Kernel.create_port kernel ~name:"churn.echo" in
  let server =
    Kernel.spawn kernel ~name:"churn.srv" (fun () ->
        while true do
          let m = Api.receive port in
          Api.compute (Time.ms 1);
          Api.reply m "ok"
        done)
  in
  ignore (Ls.fund_thread ls server ~amount:100 ~from:(Ls.base_currency ls));
  {
    kernel;
    ls;
    port;
    transients = Queue.create ();
    spawned = 0;
    kills = 0;
  }

let transient port () =
  while true do
    Api.compute (Time.ms 2);
    ignore (Api.rpc port "req");
    Api.sleep (Time.ms 5)
  done

let step t =
  let th =
    Kernel.spawn t.kernel
      ~name:(Printf.sprintf "churn.%d" t.spawned)
      (transient t.port)
  in
  t.spawned <- t.spawned + 1;
  ignore (Ls.fund_thread t.ls th ~amount:100 ~from:(Ls.base_currency t.ls));
  Queue.push th t.transients;
  if Queue.length t.transients > keep then begin
    Kernel.kill t.kernel (Queue.pop t.transients);
    t.kills <- t.kills + 1
  end;
  ignore (Kernel.run t.kernel ~until:(Kernel.now t.kernel + period))

let run t ~until =
  while Kernel.now t.kernel < until do
    step t
  done

let kills t = t.kills
