(* Currency funding glue shared by the resource managers.

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

type t = { sys : F.system; ticket : F.ticket }

let attach sys ~currency ~amount =
  if amount <= 0 then invalid_arg "Funded.attach: amount <= 0";
  let ticket = F.issue sys ~currency ~amount in
  F.hold sys ticket;
  { sys; ticket }

(* Activate/deactivate the competing ticket (idempotent). *)
let set_active fd active =
  if active then F.resume fd.sys fd.ticket else F.suspend fd.sys fd.ticket

let value valuation fd = F.Valuation.ticket_value valuation fd.ticket
let currency fd = F.denomination fd.ticket
let detach fd = F.destroy_ticket fd.sys fd.ticket

(* Scoped change tracking shared by the managers: accumulate the currency
   ids dirtied by funding mutations so the manager can revalue only the
   clients funded by those currencies (O(dirtied)) instead of walking its
   whole client list on every draw. *)
module Tracker = struct
  type t = { pending : (int, unit) Hashtbl.t; mutable full : bool }

  let attach sys =
    let tr = { pending = Hashtbl.create 16; full = false } in
    let record c = Hashtbl.replace tr.pending (F.currency_id c) () in
    ignore (F.on_change sys (fun ch -> F.iter_changed ch record));
    tr

  let force tr = tr.full <- true

  let drain tr =
    if tr.full then begin
      tr.full <- false;
      Hashtbl.reset tr.pending;
      `All
    end
    else if Hashtbl.length tr.pending = 0 then `None
    else begin
      let cids = Hashtbl.fold (fun cid () acc -> cid :: acc) tr.pending [] in
      Hashtbl.reset tr.pending;
      `Dirtied cids
    end
end
