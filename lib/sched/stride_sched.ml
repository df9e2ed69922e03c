open Lotto_sim.Types

let stride1 = 1 lsl 20 |> float_of_int

type tstate = {
  th : thread;
  mutable tickets : int;
  mutable pass : float;
  mutable remain : float; (* pass headroom saved when leaving the queue *)
  mutable runnable : bool;
  mutable seq : int;
}

type t = {
  states : (int, tstate) Hashtbl.t;
  mutable global_pass : float;
  mutable next_seq : int;
}

let create () = { states = Hashtbl.create 32; global_pass = 0.; next_seq = 0 }

let stride s = stride1 /. float_of_int s.tickets

let state t th =
  match Hashtbl.find_opt t.states th.id with
  | Some s -> s
  | None ->
      let s = { th; tickets = 1; pass = 0.; remain = 0.; runnable = false; seq = 0 } in
      Hashtbl.replace t.states th.id s;
      s

let set_tickets t th n =
  if n <= 0 then invalid_arg "Stride_sched.set_tickets: nonpositive";
  let s = state t th in
  (* Rescale remaining pass so a ticket change takes effect smoothly, as in
     the stride-scheduling client-modification rule. *)
  let done_frac = (s.pass -. t.global_pass) /. stride s in
  s.tickets <- n;
  s.pass <- t.global_pass +. (done_frac *. stride s)

let tickets t th = (state t th).tickets
let pass t th = (state t th).pass

let mark_ready t th =
  let s = state t th in
  if not s.runnable then begin
    s.runnable <- true;
    s.seq <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    (* rejoin at the global pass plus saved headroom: blocked threads don't
       accumulate credit *)
    s.pass <- t.global_pass +. s.remain
  end

let mark_unready t th =
  let s = state t th in
  if s.runnable then begin
    s.runnable <- false;
    s.remain <- max 0. (s.pass -. t.global_pass)
  end

let detach t th = Hashtbl.remove t.states th.id

let select t =
  let best = ref None in
  Hashtbl.iter
    (fun _ s ->
      if s.runnable then
        match !best with
        | None -> best := Some s
        | Some b ->
            if s.pass < b.pass || (s.pass = b.pass && s.seq < b.seq) then
              best := Some s)
    t.states;
  match !best with
  | None -> None
  | Some s ->
      t.global_pass <- s.pass;
      Some s.th

let account t th ~used ~quantum ~blocked:_ =
  let s = state t th in
  s.pass <- s.pass +. (stride s *. float_of_int used /. float_of_int quantum)

let sched t =
  {
    sched_name = "stride";
    attach = mark_ready t;
    detach = detach t;
    ready = mark_ready t;
    unready = mark_unready t;
    max_cpus = 1;
    select = (fun ~cpu:_ -> select t);
    account = (fun th ~used ~quantum ~blocked -> account t th ~used ~quantum ~blocked);
    donate = (fun ~src:_ ~dst:_ -> ());
    revoke = (fun ~src:_ -> ());
    revoke_from = (fun ~src:_ ~dst:_ -> ());
    pick_waiter = (fun _ -> None);
  }
