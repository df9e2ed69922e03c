module Rng = Lotto_prng.Rng
module Draw = Lotto_draw.Draw
module F = Lotto_tickets.Funding
module Obs = Lotto_obs

type client = {
  id : int;
  name : string;
  mutable tickets : int;
  mutable value : float; (* draw-weight basis: raw tickets or currency value *)
  funding : Funded.t option;
  mutable handle : client Draw.handle option;
  mutable pending : int;
  mutable served : int;
}

type t = {
  rng : Rng.t;
  draw : client Draw.t;
  ftrack : client Funded.Tracker.t option;
  bus : Obs.Bus.t;
  mutable clients : client list; (* reverse creation order *)
  mutable next_id : int;
  mutable backlogged : int; (* clients with pending > 0 *)
  mutable total_served : int;
  mutable wgen : int; (* bumped on every weight write: a batch of
                         pre-drawn winners is valid only while it holds *)
  mutable batch : client array; (* draw_k scratch, sized at first register *)
}

let batch_k = 64

let create ?funding ~rng () =
  {
    rng;
    draw = Draw.of_mode Draw.List;
    ftrack = Option.map Funded.Tracker.create funding;
    bus = Obs.Bus.create ();
    clients = [];
    next_id = 0;
    backlogged = 0;
    total_served = 0;
    wgen = 0;
    batch = [||];
  }

let events t = t.bus

(* A client competes only while backlogged; idle shares redistribute. *)
let weight_of c = if c.pending > 0 then c.value else 0.

let update_weight t c =
  match c.handle with
  | Some h ->
      Draw.set_weight t.draw h (weight_of c);
      t.wgen <- t.wgen + 1
  | None -> ()

let register t c =
  c.handle <- Some (Draw.add t.draw ~client:c ~weight:(weight_of c));
  t.clients <- c :: t.clients;
  t.wgen <- t.wgen + 1;
  if Array.length t.batch = 0 then t.batch <- Array.make batch_k c

let add_client t ~name ~tickets =
  if tickets < 0 then invalid_arg "Io_bandwidth.add_client: negative tickets";
  let c =
    {
      id = t.next_id;
      name;
      tickets;
      value = float_of_int tickets;
      funding = None;
      handle = None;
      pending = 0;
      served = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  register t c;
  c

let add_funded_client t ~name ?(amount = 1000) ~currency () =
  let tr =
    match t.ftrack with
    | Some tr -> tr
    | None -> invalid_arg "Io_bandwidth.add_funded_client: created without ~funding"
  in
  let sys = Funded.Tracker.system tr in
  let fd = Funded.attach sys ~currency ~amount in
  Funded.set_active fd false (* idle until the first submit *);
  let c =
    {
      id = t.next_id;
      name;
      tickets = 0;
      value = Funded.value (F.Valuation.make sys) fd;
      funding = Some fd;
      handle = None;
      pending = 0;
      served = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  register t c;
  Funded.Tracker.add tr fd c;
  c

let set_tickets t c tickets =
  if tickets < 0 then invalid_arg "Io_bandwidth.set_tickets: negative";
  c.tickets <- tickets;
  if c.funding = None then begin
    c.value <- float_of_int tickets;
    update_weight t c
  end

let client_name c = c.name

let set_backlogged t c now_backlogged =
  t.backlogged <- t.backlogged + (if now_backlogged then 1 else -1);
  (match c.funding with
  | Some fd -> Funded.set_active fd now_backlogged
  | None -> ());
  update_weight t c

let submit t c ~requests =
  if requests < 0 then invalid_arg "Io_bandwidth.submit: negative requests";
  if requests > 0 then begin
    let was_idle = c.pending = 0 in
    c.pending <- c.pending + requests;
    if was_idle then set_backlogged t c true
  end

let pending _t c = c.pending

let cancel_pending t c =
  if c.pending > 0 then begin
    c.pending <- 0;
    set_backlogged t c false
  end

(* Re-derive funded clients' values from the funding graph: the tracker
   hands over exactly the clients funded by currencies that moved. *)
let revalue t c v =
  c.value <- v;
  update_weight t c

let refresh t =
  match t.ftrack with
  | Some tr -> Funded.Tracker.refresh tr t revalue
  | None -> ()

let value t c =
  refresh t;
  c.value

let publish_draw t c =
  if Obs.Bus.active t.bus then
    Obs.Bus.emit t.bus ~time:t.total_served
      (Obs.Event.Resource_draw
         {
           who = Obs.Event.actor_of ~tid:c.id ~tname:c.name;
           resource = "io";
           contenders = t.backlogged;
           total_weight = Draw.total t.draw;
         })

(* All backlogged clients are unfunded: serve FIFO by creation order
   (t.clients is reversed, so keep the last match). *)
let fifo_pick t =
  List.fold_left (fun acc c -> if c.pending > 0 then Some c else acc) None t.clients

let serve_winner t c =
  c.pending <- c.pending - 1;
  if c.pending = 0 then set_backlogged t c false;
  c.served <- c.served + 1;
  t.total_served <- t.total_served + 1

let serve_slot t =
  refresh t;
  let s = Draw.draw_slot t.draw t.rng in
  if s >= 0 then begin
    let c = Draw.client_at t.draw s in
    publish_draw t c;
    serve_winner t c;
    Some c
  end
  else
    match fifo_pick t with
    | None -> None
    | Some c ->
        serve_winner t c;
        Some c

(* Batched service: pre-draw up to [batch_k] winners in one {!Draw.draw_k}
   call and serve them in order. Serving a winner can change draw weights
   — a client's last pending request drains, or a funding change lands via
   [refresh] — which [wgen] detects; the unserved tail of the batch is then discarded
   and redrawn against the fresh weights, so every served slot saw the
   weights a slot-at-a-time lottery would have. (The discarded draws do
   consume randomness, so the stream differs from repeated {!serve_slot}
   calls; the distribution per slot is identical.) *)
let serve t ~slots =
  let left = ref slots in
  let live = ref true in
  while !live && !left > 0 do
    refresh t;
    let k = min !left batch_k in
    let n =
      if Array.length t.batch = 0 then 0 else Draw.draw_k t.draw t.rng ~k t.batch
    in
    if n = 0 then begin
      match fifo_pick t with
      | None -> live := false
      | Some c ->
          serve_winner t c;
          decr left
    end
    else begin
      let gen = t.wgen in
      let i = ref 0 in
      while !i < n && t.wgen = gen do
        let c = t.batch.(!i) in
        publish_draw t c;
        serve_winner t c;
        incr i;
        decr left
      done
    end
  done

let served _t c = c.served
let total_served t = t.total_served
