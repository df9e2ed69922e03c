open Lotto_sim.Types

type t = {
  queue : thread Queue.t;
  member : (int, unit) Hashtbl.t; (* lazy-deletion membership *)
  mutable selections : int;
}

let create () = { queue = Queue.create (); member = Hashtbl.create 32; selections = 0 }

let enqueue t th =
  if not (Hashtbl.mem t.member th.id) then begin
    Hashtbl.replace t.member th.id ();
    Queue.push th t.queue
  end

let remove t th = Hashtbl.remove t.member th.id

let rec select t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some th ->
      if Hashtbl.mem t.member th.id then begin
        (* rotate: the selected thread goes to the tail for next time *)
        Queue.push th t.queue;
        t.selections <- t.selections + 1;
        Some th
      end
      else select t

let sched t =
  {
    sched_name = "round-robin";
    attach = enqueue t;
    detach = remove t;
    ready = enqueue t;
    unready = remove t;
    max_cpus = 1;
    select = (fun ~cpu:_ -> select t);
    account = (fun _ ~used:_ ~quantum:_ ~blocked:_ -> ());
    donate = (fun ~src:_ ~dst:_ -> ());
    revoke = (fun ~src:_ -> ());
    revoke_from = (fun ~src:_ ~dst:_ -> ());
    pick_waiter = (fun _ -> None);
  }

let selections t = t.selections
