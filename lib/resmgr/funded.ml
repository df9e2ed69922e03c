(* The seat core shared by the resource managers: how a client's tickets
   become its share.

   A funded client competes in its resource's lotteries exactly like a
   thread competes for the CPU: it holds a ticket issued in the funding
   currency, so the currency's value is divided among everything it funds
   (CPU threads, disk clients, circuits, ...) in proportion to face
   amounts, and inflating a backing ticket shifts every resource at once.
   Managers suspend the held ticket while the client has no queued work, so
   an idle stream's rights re-concentrate into the currency's other
   consumers (the paper's lightly-contended-resource property, applied
   across resources). *)

module F = Lotto_tickets.Funding
module Obs = Lotto_obs
module Vec = Lotto_arena.Vec

type seat = {
  id : int;
  name : string;
  mutable value : float; (* draw-weight basis: raw tickets or currency value *)
  held : F.ticket option; (* funded seats: the ticket the value comes from *)
}

(* Scoped change tracking: the seats grouped by funding currency, and the
   refresh walk that revalues exactly the seats whose currencies funding
   mutations dirtied — O(dirtied), not O(seats), and a no-op while the
   graph is quiescent. Each group's currency is watched with the group's
   index as its tag, so a flip queues the group itself. Only currencies
   that fund a seat of the table are watched: a manager that is never
   served queues nothing while unrelated currencies churn. *)
type 'c group = {
  mutable members : ('c * seat * F.ticket) list; (* newest first *)
}

type 'c watching = {
  sys : F.system;
  groups : 'c group Vec.t; (* by tag; never removed *)
  stale : F.queue; (* watches every group's currency *)
}

type 'c table = {
  funding : 'c watching option; (* [None]: raw seats only *)
  mutable next_id : int;
}

let table funding =
  let watching sys = { sys; groups = Vec.create (); stale = F.queue sys } in
  { funding = Option.map watching funding; next_id = 0 }

let pending tb = match tb.funding with Some w -> F.queued w.stale | None -> 0

let seat tb ~name ~value ~held =
  let s =
    {
      id = tb.next_id;
      name;
      value;
      held;
    }
  in
  tb.next_id <- tb.next_id + 1;
  s

let raw tb ~who ~name ~tickets =
  if tickets < 0 then invalid_arg (who ^ ": negative tickets");
  seat tb ~name ~value:(float_of_int tickets) ~held:None

let funded tb ~who ~name ~amount ~currency ~active make =
  let w =
    match tb.funding with
    | Some w -> w
    | None -> invalid_arg (who ^ ": created without ~funding")
  in
  let sys = w.sys in
  if amount <= 0 then invalid_arg (who ^ ": amount <= 0");
  let tk = F.issue sys ~currency ~amount in
  F.hold sys tk;
  if not active then F.suspend sys tk;
  let s = seat tb ~name ~value:(F.ticket_value sys tk) ~held:(Some tk) in
  let client = make s in
  (match F.tag currency w.stale with
  | -1 ->
      F.watch currency w.stale ~tag:(Vec.length w.groups);
      Vec.push w.groups { members = [ (client, s, tk) ] }
  | gi ->
      let g = Vec.get w.groups gi in
      g.members <- (client, s, tk) :: g.members);
  client

let set_tickets ~who s tickets =
  if tickets < 0 then invalid_arg (who ^ ": negative tickets");
  match s.held with
  | None ->
      s.value <- float_of_int tickets;
      true
  | Some _ -> false

let set_active tb s active =
  match (tb.funding, s.held) with
  | Some w, Some tk -> if active then F.resume w.sys tk else F.suspend w.sys tk
  | _ -> ()

(* [F.ticket_value] inlined: the denomination's unit value is read from
   the flat table it validates, so no float is boxed across a call, and the
   boxed [value] field is written only when the value moved. *)
let rec revalue sys m f = function
  | [] -> ()
  | (client, s, tk) :: rest ->
      let d = F.denomination tk in
      let units = F.unit_table sys d in
      let v =
        if F.is_active sys tk then float_of_int (F.amount sys tk) *. units.(F.currency_slot d)
        else 0.
      in
      let moved = v <> s.value in
      if moved then s.value <- v;
      f m client moved;
      revalue sys m f rest

let refresh tb m f =
  match tb.funding with
  | None -> ()
  | Some w ->
      for k = 0 to F.settle w.stale - 1 do
        revalue w.sys m f (Vec.get w.groups (F.nth w.stale k)).members
      done;
      F.clear w.stale

let publish bus ~time ~resource ~contenders ~total s =
  Obs.Bus.emit bus ~time
    (Obs.Event.Resource_draw
       {
         who = Obs.Event.actor_of ~tid:s.id ~tname:s.name;
         resource;
         contenders;
         total_weight = total;
       })
