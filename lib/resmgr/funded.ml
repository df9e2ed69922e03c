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

(* Scoped change tracking shared by the managers: the index from funding
   currency to the clients it funds, and the refresh walk that revalues
   exactly the clients whose currencies funding mutations dirtied —
   O(dirtied), not O(clients), and a no-op while the graph is quiescent.

   Only currencies that fund a registered client are recorded, each at
   most once between refreshes, into a reusable buffer in first-dirtied
   order: the change callback allocates nothing, and a manager that is
   never served cannot accumulate the ids of unrelated currencies (ids are
   never recycled, so a table of every dirtied currency grows without
   bound while currencies churn). Groups sit in an array indexed by
   currency slot, guarded by a physical-equality check on the currency in
   case the slot is recycled. *)
module Tracker = struct
  type nonrec 'c group = {
    cur : F.currency;
    mutable members : ('c * t) list; (* newest first *)
    mutable queued : bool; (* in [dirty] awaiting the next refresh *)
  }

  type nonrec 'c t = {
    sys : F.system;
    mutable by_slot : 'c group option array; (* by currency slot *)
    mutable all : ('c * t) list; (* every registered client, newest first *)
    mutable dirty : 'c group option array;
        (* cells hold the [Some g] stored in [by_slot]; reset to [None]
           when drained *)
    mutable n_dirty : int;
    mutable full : bool; (* next refresh revalues every client *)
  }

  let grow arr n =
    let a = Array.make (max 16 (max (n + 1) (2 * Array.length arr))) None in
    Array.blit arr 0 a 0 (Array.length arr);
    a

  let note tr c =
    let i = F.currency_slot c in
    if i >= 0 && i < Array.length tr.by_slot then
      match tr.by_slot.(i) with
      | Some g as o when g.cur == c && not g.queued ->
          g.queued <- true;
          if tr.n_dirty = Array.length tr.dirty then
            tr.dirty <- grow tr.dirty tr.n_dirty;
          tr.dirty.(tr.n_dirty) <- o;
          tr.n_dirty <- tr.n_dirty + 1
      | _ -> ()

  (* Both closures are built here, once, so an event costs no allocation. *)
  let create sys =
    let tr =
      { sys; by_slot = [||]; all = []; dirty = [||]; n_dirty = 0; full = false }
    in
    let record c = note tr c in
    ignore (F.on_change sys (fun ch -> F.iter_changed ch record));
    tr

  let system tr = tr.sys

  let add tr fd client =
    let c = currency fd in
    let i = F.currency_slot c in
    if i >= Array.length tr.by_slot then tr.by_slot <- grow tr.by_slot i;
    (match tr.by_slot.(i) with
    | Some g when g.cur == c -> g.members <- (client, fd) :: g.members
    | _ ->
        tr.by_slot.(i) <-
          Some { cur = c; members = [ (client, fd) ]; queued = false });
    tr.all <- (client, fd) :: tr.all

  let force tr = tr.full <- true
  let pending tr = tr.n_dirty

  let rec revalue_all tr m f = function
    | [] -> ()
    | (client, fd) :: rest ->
        f m client (value (F.Valuation.make tr.sys) fd);
        revalue_all tr m f rest

  (* [f m client v] receives each dirtied client's fresh value [v], in the
     order the currencies were first dirtied and, within a currency, newest
     client first. [f] is typically a top-level function of the manager, so
     no closure is built per refresh. *)
  let refresh tr m f =
    for i = 0 to tr.n_dirty - 1 do
      match tr.dirty.(i) with
      | Some g ->
          tr.dirty.(i) <- None;
          g.queued <- false;
          if not tr.full then revalue_all tr m f g.members
      | None -> ()
    done;
    tr.n_dirty <- 0;
    if tr.full then begin
      tr.full <- false;
      revalue_all tr m f tr.all
    end
end
