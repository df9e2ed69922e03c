open Lotto_sim.Types

type tstate = {
  th : thread;
  mutable prio : int;
  mutable donors : thread list; (* threads currently donating to us *)
  mutable runnable : bool;
  mutable seq : int; (* FIFO order within a priority level *)
}

type t = {
  states : (int, tstate) Hashtbl.t;
  inheritance : bool;
  mutable next_seq : int;
  mutable donation_of : (int * thread) list; (* src id -> dst *)
}

let create ?(inheritance = false) () =
  { states = Hashtbl.create 32; inheritance; next_seq = 0; donation_of = [] }

let state t th =
  match Hashtbl.find_opt t.states th.id with
  | Some s -> s
  | None ->
      let s = { th; prio = 0; donors = []; runnable = false; seq = 0 } in
      Hashtbl.replace t.states th.id s;
      s

let set_priority t th p = (state t th).prio <- p
let priority t th = (state t th).prio

let rec effective t (s : tstate) =
  if not t.inheritance then s.prio
  else
    List.fold_left
      (fun acc d -> max acc (effective t (state t d)))
      s.prio s.donors

let effective_priority t th = effective t (state t th)

let mark_ready t th =
  let s = state t th in
  if not s.runnable then begin
    s.runnable <- true;
    s.seq <- t.next_seq;
    t.next_seq <- t.next_seq + 1
  end

let mark_unready t th = (state t th).runnable <- false

let select t =
  let best = ref None in
  Hashtbl.iter
    (fun _ s ->
      if s.runnable then
        match !best with
        | None -> best := Some s
        | Some b ->
            let ps = effective t s and pb = effective t b in
            if ps > pb || (ps = pb && s.seq < b.seq) then best := Some s)
    t.states;
  match !best with
  | None -> None
  | Some s ->
      (* refresh FIFO position so equal priorities round-robin *)
      s.seq <- t.next_seq;
      t.next_seq <- t.next_seq + 1;
      Some s.th

let donate t ~src ~dst =
  if t.inheritance then begin
    let d = state t dst in
    if not (List.memq src d.donors) then d.donors <- src :: d.donors;
    t.donation_of <- (src.id, dst) :: t.donation_of
  end

let revoke_from t ~src ~dst =
  if t.inheritance then begin
    t.donation_of <-
      List.filter (fun (s, d) -> not (s = src.id && d.id = dst.id)) t.donation_of;
    if not (List.exists (fun (s, d) -> s = src.id && d.id = dst.id) t.donation_of)
    then begin
      let ds = state t dst in
      ds.donors <- List.filter (fun th -> th.id <> src.id) ds.donors
    end
  end

let revoke t ~src =
  if t.inheritance then
    List.iter
      (fun (s, dst) -> if s = src.id then revoke_from t ~src ~dst)
      t.donation_of

(* A dying thread's transfers go with it, as source and as target, so no
   later revoke reaches it. *)
let detach t th =
  revoke t ~src:th;
  t.donation_of <- List.filter (fun (_, d) -> d != th) t.donation_of;
  Hashtbl.remove t.states th.id

let sched t =
  {
    sched_name = (if t.inheritance then "fixed-priority+pi" else "fixed-priority");
    attach = mark_ready t;
    detach = detach t;
    ready = mark_ready t;
    unready = mark_unready t;
    max_cpus = 1;
    select = (fun ~cpu:_ -> select t);
    account = (fun _ ~used:_ ~quantum:_ ~blocked:_ -> ());
    donate = (fun ~src ~dst -> donate t ~src ~dst);
    revoke = (fun ~src -> revoke t ~src);
    revoke_from = (fun ~src ~dst -> revoke_from t ~src ~dst);
    pick_waiter = (fun _ -> None);
  }
