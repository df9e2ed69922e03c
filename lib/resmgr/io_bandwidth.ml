module Rng = Lotto_prng.Rng
module Draw = Lotto_draw.Draw
module Obs = Lotto_obs

type client = {
  seat : Funded.seat;
  mutable handle : client Draw.handle option;
  mutable pending : int;
  mutable served : int;
}

type t = {
  rng : Rng.t;
  draw : client Draw.t;
  seats : client Funded.table;
  bus : Obs.Bus.t;
  mutable clients : client list; (* reverse creation order *)
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
    seats = Funded.table funding;
    bus = Obs.Bus.create ();
    clients = [];
    backlogged = 0;
    total_served = 0;
    wgen = 0;
    batch = [||];
  }

let events t = t.bus

(* A client competes only while backlogged; idle shares redistribute. *)
let weight_of c = if c.pending > 0 then c.seat.value else 0.

let update_weight t c =
  match c.handle with
  | Some h ->
      Draw.set_weight t.draw h (weight_of c);
      t.wgen <- t.wgen + 1
  | None -> ()

let register t seat =
  let c =
    {
      seat;
      handle = None;
      pending = 0;
      served = 0;
    }
  in
  c.handle <- Some (Draw.add t.draw ~client:c ~weight:(weight_of c));
  t.clients <- c :: t.clients;
  t.wgen <- t.wgen + 1;
  if Array.length t.batch = 0 then t.batch <- Array.make batch_k c;
  c

let add_client t ~name ~tickets =
  register t (Funded.raw t.seats ~who:"Io_bandwidth.add_client" ~name ~tickets)

(* idle until the first submit *)
let add_funded_client t ~name ?(amount = 1000) ~currency () =
  Funded.funded t.seats ~who:"Io_bandwidth.add_funded_client" ~name ~amount ~currency
    ~active:false (register t)

let set_tickets t c tickets =
  if Funded.set_tickets ~who:"Io_bandwidth.set_tickets" c.seat tickets then
    update_weight t c

let client_name c = c.seat.name

let set_backlogged t c now_backlogged =
  t.backlogged <- t.backlogged + (if now_backlogged then 1 else -1);
  Funded.set_active t.seats c.seat now_backlogged;
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

(* The seat core hands over exactly the funded clients whose currencies
   moved. *)
let revalue t c _moved = update_weight t c
let refresh t = Funded.refresh t.seats t revalue

let value t c =
  refresh t;
  c.seat.value

let publish_draw t c =
  if Obs.Bus.active t.bus then
    Funded.publish t.bus ~time:t.total_served ~resource:"io" ~contenders:t.backlogged
      ~total:(Draw.total t.draw) c.seat

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
