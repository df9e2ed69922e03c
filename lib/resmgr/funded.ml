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

type seat = {
  id : int;
  name : string;
  mutable value : float; (* draw-weight basis: raw tickets or currency value *)
  held : F.ticket option; (* funded seats: the ticket the value comes from *)
}

(* Scoped change tracking: the index from funding currency to the seats it
   funds, and the refresh walk that revalues exactly the seats whose
   currencies funding mutations dirtied — O(dirtied), not O(seats), and a
   no-op while the graph is quiescent.

   Only currencies that fund a registered seat are recorded, each at most
   once between refreshes, into a reusable buffer in first-dirtied order:
   the change callback allocates nothing, and a manager that is never
   served cannot accumulate the ids of unrelated currencies (ids are never
   recycled, so a table of every dirtied currency grows without bound
   while currencies churn). Groups sit in an array indexed by currency
   slot, guarded by a physical-equality check on the currency in case the
   slot is recycled. *)
type 'c group = {
  cur : F.currency;
  mutable members : ('c * seat * F.ticket) list; (* newest first *)
  mutable queued : bool; (* in [dirty] awaiting the next refresh *)
}

type 'c table = {
  sys : F.system option; (* [None]: raw seats only *)
  mutable next_id : int;
  mutable by_slot : 'c group option array; (* by currency slot *)
  mutable dirty : 'c group option array;
      (* cells hold the [Some g] stored in [by_slot]; reset to [None] when
         drained *)
  mutable n_dirty : int;
}

let grow arr n =
  let a = Array.make (max 16 (max (n + 1) (2 * Array.length arr))) None in
  Array.blit arr 0 a 0 (Array.length arr);
  a

let note tb c =
  let i = F.currency_slot c in
  if i >= 0 && i < Array.length tb.by_slot then
    match tb.by_slot.(i) with
    | Some g as o when g.cur == c && not g.queued ->
        g.queued <- true;
        if tb.n_dirty = Array.length tb.dirty then tb.dirty <- grow tb.dirty tb.n_dirty;
        tb.dirty.(tb.n_dirty) <- o;
        tb.n_dirty <- tb.n_dirty + 1
    | _ -> ()

(* Both closures are built here, once, so a change event costs no
   allocation. *)
let table funding =
  let tb =
    {
      sys = funding;
      next_id = 0;
      by_slot = [||];
      dirty = [||];
      n_dirty = 0;
    }
  in
  (match funding with
  | Some sys ->
      let record c = note tb c in
      ignore (F.on_change sys (fun ch -> F.iter_changed ch record))
  | None -> ());
  tb

let pending tb = tb.n_dirty

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
  let sys =
    match tb.sys with
    | Some sys -> sys
    | None -> invalid_arg (who ^ ": created without ~funding")
  in
  if amount <= 0 then invalid_arg (who ^ ": amount <= 0");
  let tk = F.issue sys ~currency ~amount in
  F.hold sys tk;
  if not active then F.suspend sys tk;
  let s = seat tb ~name ~value:(F.ticket_value sys tk) ~held:(Some tk) in
  let client = make s in
  let i = F.currency_slot currency in
  if i >= Array.length tb.by_slot then tb.by_slot <- grow tb.by_slot i;
  (match tb.by_slot.(i) with
  | Some g when g.cur == currency -> g.members <- (client, s, tk) :: g.members
  | _ ->
      tb.by_slot.(i) <-
        Some { cur = currency; members = [ (client, s, tk) ]; queued = false });
  client

let set_tickets ~who s tickets =
  if tickets < 0 then invalid_arg (who ^ ": negative tickets");
  match s.held with
  | None ->
      s.value <- float_of_int tickets;
      true
  | Some _ -> false

let set_active tb s active =
  match (tb.sys, s.held) with
  | Some sys, Some tk -> if active then F.resume sys tk else F.suspend sys tk
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
        if F.is_active tk then float_of_int (F.amount tk) *. units.(F.currency_slot d)
        else 0.
      in
      let moved = v <> s.value in
      if moved then s.value <- v;
      f m client moved;
      revalue sys m f rest

let refresh tb m f =
  match tb.sys with
  | None -> ()
  | Some sys ->
      for i = 0 to tb.n_dirty - 1 do
        match tb.dirty.(i) with
        | Some g ->
            tb.dirty.(i) <- None;
            g.queued <- false;
            revalue sys m f g.members
        | None -> ()
      done;
      tb.n_dirty <- 0

let publish bus ~time ~resource ~contenders ~total s =
  Obs.Bus.emit bus ~time
    (Obs.Event.Resource_draw
       {
         who = Obs.Event.actor_of ~tid:s.id ~tname:s.name;
         resource;
         contenders;
         total_weight = total;
       })
