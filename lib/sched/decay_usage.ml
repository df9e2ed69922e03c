open Lotto_sim.Types

type tstate = {
  th : thread;
  mutable usage : float;
  mutable updated_at : int; (* virtual time of last decay application *)
  mutable runnable : bool;
  mutable seq : int;
}

type t = {
  states : (int, tstate) Hashtbl.t;
  half_life : float;
  mutable clock : int; (* advanced via account calls *)
  mutable next_seq : int;
}

let create ?(half_life = Lotto_sim.Time.seconds 2) () =
  if half_life <= 0 then invalid_arg "Decay_usage.create: half_life <= 0";
  {
    states = Hashtbl.create 32;
    half_life = float_of_int half_life;
    clock = 0;
    next_seq = 0;
  }

let state t th =
  match Hashtbl.find_opt t.states th.id with
  | Some s -> s
  | None ->
      let s = { th; usage = 0.; updated_at = t.clock; runnable = false; seq = 0 } in
      Hashtbl.replace t.states th.id s;
      s

let decay t s =
  let dt = t.clock - s.updated_at in
  if dt > 0 then begin
    s.usage <- s.usage *. (0.5 ** (float_of_int dt /. t.half_life));
    s.updated_at <- t.clock
  end

let usage t th =
  let s = state t th in
  decay t s;
  s.usage

let mark_ready t th =
  let s = state t th in
  if not s.runnable then begin
    s.runnable <- true;
    s.seq <- t.next_seq;
    t.next_seq <- t.next_seq + 1
  end

let mark_unready t th = (state t th).runnable <- false

let detach t th = Hashtbl.remove t.states th.id

let select t =
  let best = ref None in
  Hashtbl.iter
    (fun _ s ->
      if s.runnable then begin
        decay t s;
        match !best with
        | None -> best := Some s
        | Some b ->
            if s.usage < b.usage || (s.usage = b.usage && s.seq < b.seq) then
              best := Some s
      end)
    t.states;
  Option.map (fun s -> s.th) !best

let account t th ~used ~quantum:_ ~blocked:_ =
  t.clock <- t.clock + used;
  let s = state t th in
  decay t s;
  s.usage <- s.usage +. float_of_int used

let sched t =
  {
    sched_name = "decay-usage";
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
