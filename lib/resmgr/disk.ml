module Rng = Lotto_prng.Rng
module Draw = Lotto_draw.Draw
module Obs = Lotto_obs

type policy = Fcfs | Sstf | Lottery

type request = { cylinder : int; submitted_at : int; seq : int }

type client = {
  seat : Funded.seat;
  mutable handle : client Draw.handle option;
  mutable queue : request list; (* unordered; scans pick by seq / distance *)
  mutable served : int;
  mutable latency_sum : int;
}

type t = {
  pol : policy;
  cylinders : int;
  seek_cost : int;
  transfer_cost : int;
  rng : Rng.t;
  draw : client Draw.t;
  seats : client Funded.table;
  bus : Obs.Bus.t;
  mutable clients : client list; (* reverse creation order *)
  mutable backlogged_count : int;
  mutable head : int;
  mutable clock : int;
  mutable seq : int;
  mutable total_served : int;
  mutable seek_distance : int;
  mutable wgen : int; (* bumped on every weight write: a batch of
                         pre-drawn winners is valid only while it holds *)
  mutable batch : client array; (* draw_k scratch, sized at first register *)
  mutable batch_len : int; (* winners pre-drawn into [batch] *)
  mutable batch_pos : int; (* next unserved winner *)
  mutable batch_gen : int; (* [wgen] the batch was drawn under *)
}

let batch_k = 64

let create ?(policy = Lottery) ?(cylinders = 1000) ?(seek_cost = 10)
    ?(transfer_cost = 2000) ?funding ~rng () =
  if cylinders <= 0 then invalid_arg "Disk.create: cylinders <= 0";
  if seek_cost < 0 || transfer_cost <= 0 then invalid_arg "Disk.create: bad costs";
  {
    pol = policy;
    cylinders;
    seek_cost;
    transfer_cost;
    rng;
    draw = Draw.of_mode Draw.List;
    seats = Funded.table funding;
    bus = Obs.Bus.create ();
    clients = [];
    backlogged_count = 0;
    head = 0;
    clock = 0;
    seq = 0;
    total_served = 0;
    seek_distance = 0;
    wgen = 0;
    batch = [||];
    batch_len = 0;
    batch_pos = 0;
    batch_gen = -1;
  }

let policy t = t.pol
let events t = t.bus

let weight_of c = if c.queue <> [] then c.seat.value else 0.

(* A weight dropping to zero (a queue draining) does NOT bump [wgen]:
   batched slots are independent draws, so skipping a dead entry at
   consume time conditions the remaining slots on "not that client" —
   exactly the distribution a redraw against the shrunken weights would
   give. Any write of a {e positive} weight (a new backlog, ticket or
   funding movement) changes the ratios among live clients and must
   discard the pre-drawn tail. *)
let update_weight t c =
  match c.handle with
  | Some h ->
      let w = weight_of c in
      Draw.set_weight t.draw h w;
      if w > 0. then t.wgen <- t.wgen + 1
  | None -> ()

let register t seat =
  let c =
    {
      seat;
      handle = None;
      queue = [];
      served = 0;
      latency_sum = 0;
    }
  in
  c.handle <- Some (Draw.add t.draw ~client:c ~weight:(weight_of c));
  t.clients <- c :: t.clients;
  t.wgen <- t.wgen + 1;
  if Array.length t.batch = 0 then t.batch <- Array.make batch_k c;
  c

let add_client t ~name ~tickets =
  register t (Funded.raw t.seats ~who:"Disk.add_client" ~name ~tickets)

(* idle until the first submit *)
let add_funded_client t ~name ?(amount = 1000) ~currency () =
  Funded.funded t.seats ~who:"Disk.add_funded_client" ~name ~amount ~currency
    ~active:false (register t)

let set_tickets t c tickets =
  if Funded.set_tickets ~who:"Disk.set_tickets" c.seat tickets then update_weight t c

let client_name c = c.seat.name

let set_backlogged t c now_backlogged =
  t.backlogged_count <- t.backlogged_count + (if now_backlogged then 1 else -1);
  Funded.set_active t.seats c.seat now_backlogged;
  update_weight t c

let submit t c ~cylinder =
  if cylinder < 0 || cylinder >= t.cylinders then
    invalid_arg "Disk.submit: cylinder out of range";
  let r = { cylinder; submitted_at = t.clock; seq = t.seq } in
  t.seq <- t.seq + 1;
  let was_idle = c.queue = [] in
  c.queue <- r :: c.queue;
  if was_idle then set_backlogged t c true

let pending _t c = List.length c.queue

(* creation order, for the deterministic policies and tie-breaks *)
let backlogged t = List.filter (fun c -> c.queue <> []) (List.rev t.clients)

let nearest_request t c =
  match c.queue with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun (best : request) (r : request) ->
             if abs (r.cylinder - t.head) < abs (best.cylinder - t.head) then r
             else best)
           first rest)

let oldest_request c =
  match c.queue with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun (best : request) (r : request) ->
             if r.seq < best.seq then r else best)
           first rest)

(* The seat core hands over exactly the funded clients whose currencies
   moved. *)
let revalue t c _moved = update_weight t c
let refresh t = Funded.refresh t.seats t revalue

let value t c =
  refresh t;
  c.seat.value

let publish_draw t c =
  if Obs.Bus.active t.bus then
    Funded.publish t.bus ~time:t.clock ~resource:"disk" ~contenders:t.backlogged_count
      ~total:(Draw.total t.draw) c.seat

(* Batched refill: pre-draw up to [batch_k] winners in one {!Draw.draw_k}
   call and serve them in draw order. [wgen] guards the batch: a positive
   weight write discards the unserved tail (redrawn against the fresh
   weights), while entries whose client has since gone weightless are
   skipped at consume time (see [update_weight]); either way every served
   slot sees the distribution a slot-at-a-time lottery would have drawn
   from. (Discarded draws consume randomness, so the stream differs from
   slot-at-a-time service; the per-slot distribution is identical.) On the
   list a batch saves no work over single draws; it stays because it fixes
   the RNG stream, and so the outputs, of the disk experiments. *)
let refill_batch t =
  t.batch_len <-
    (if Array.length t.batch = 0 then 0
     else Draw.draw_k t.draw t.rng ~k:batch_k t.batch);
  t.batch_pos <- 0;
  t.batch_gen <- t.wgen

let batch_winner t =
  if t.batch_gen <> t.wgen then t.batch_pos <- t.batch_len (* discard *);
  while
    t.batch_pos < t.batch_len && weight_of t.batch.(t.batch_pos) <= 0.
  do
    t.batch_pos <- t.batch_pos + 1
  done;
  if t.batch_pos >= t.batch_len then refill_batch t;
  if t.batch_pos < t.batch_len then begin
    let c = t.batch.(t.batch_pos) in
    t.batch_pos <- t.batch_pos + 1;
    Some c
  end
  else None

(* choose (client, request) per policy *)
let choose t : (client * request) option =
  match t.pol with
  | Fcfs ->
      (* globally oldest request *)
      List.fold_left
        (fun acc c ->
          match (acc, oldest_request c) with
          | None, Some r -> Some (c, r)
          | Some (_, rb), Some r when r.seq < rb.seq -> Some (c, r)
          | acc, _ -> acc)
        None (backlogged t)
  | Sstf ->
      (* globally nearest request to the head *)
      List.fold_left
        (fun acc c ->
          match (acc, nearest_request t c) with
          | None, Some r -> Some (c, r)
          | Some (_, rb), Some r
            when abs (r.cylinder - t.head) < abs (rb.cylinder - t.head) ->
              Some (c, r)
          | acc, _ -> acc)
        None (backlogged t)
  | Lottery -> (
      (* lottery over backlogged clients' funding, then the winner's
         nearest request (good local seeks, proportional global share) *)
      refresh t;
      let winner =
        match batch_winner t with
        | Some c ->
            publish_draw t c;
            Some c
        | None ->
            (* backlogged but unfunded: first backlogged in creation order *)
            List.fold_left
              (fun acc c -> if c.queue <> [] then Some c else acc)
              None t.clients
      in
      match winner with
      | None -> None
      | Some w -> (
          match nearest_request t w with
          | Some r -> Some (w, r)
          | None -> None))

let serve_one t =
  match choose t with
  | None -> None
  | Some (c, r) ->
      let distance = abs (r.cylinder - t.head) in
      t.seek_distance <- t.seek_distance + distance;
      t.clock <- t.clock + (distance * t.seek_cost) + t.transfer_cost;
      t.head <- r.cylinder;
      c.queue <- List.filter (fun (r' : request) -> r'.seq <> r.seq) c.queue;
      if c.queue = [] then set_backlogged t c false;
      c.served <- c.served + 1;
      c.latency_sum <- c.latency_sum + (t.clock - r.submitted_at);
      t.total_served <- t.total_served + 1;
      Some c

let now t = t.clock
let served _t c = c.served
let total_served t = t.total_served

let mean_latency _t c =
  if c.served = 0 then nan else float_of_int c.latency_sum /. float_of_int c.served

let total_seek_distance t = t.seek_distance
let head_position t = t.head
