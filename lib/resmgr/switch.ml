module Rng = Lotto_prng.Rng
module Draw = Lotto_draw.Draw
module F = Lotto_tickets.Funding
module Obs = Lotto_obs

type circuit = {
  id : int;
  name : string;
  port : int;
  mutable tickets : int;
  mutable value : float; (* draw-weight basis: raw tickets or currency value *)
  funding : Funded.t option;
  mutable handle : circuit Draw.handle option;
  mutable rate : float;
  buffer : int Queue.t; (* arrival slot of each buffered cell *)
  mutable delivered : int;
  mutable dropped : int;
  mutable delay_sum : int;
}

type t = {
  ports : int;
  capacity : int;
  rng : Rng.t;
  draws : circuit Draw.t array; (* one lottery per output port *)
  ftrack : circuit Funded.Tracker.t option;
  bus : Obs.Bus.t;
  mutable circuits : circuit list; (* reverse creation order *)
  mutable next_id : int;
  buffered_per_port : int array;
  mutable slot : int;
  sent_per_port : int array;
}

let create ?(ports = 4) ?(buffer_capacity = 64) ?funding ~rng () =
  if ports <= 0 then invalid_arg "Switch.create: ports <= 0";
  if buffer_capacity <= 0 then invalid_arg "Switch.create: buffer_capacity <= 0";
  {
    ports;
    capacity = buffer_capacity;
    rng;
    draws = Array.init ports (fun _ -> Draw.of_mode Draw.List);
    ftrack = Option.map Funded.Tracker.create funding;
    bus = Obs.Bus.create ();
    circuits = [];
    next_id = 0;
    buffered_per_port = Array.make ports 0;
    slot = 0;
    sent_per_port = Array.make ports 0;
  }

let events t = t.bus

let weight_of c = if Queue.is_empty c.buffer then 0. else c.value

let update_weight t c =
  match c.handle with
  | Some h -> Draw.set_weight t.draws.(c.port) h (weight_of c)
  | None -> ()

let register t c =
  c.handle <- Some (Draw.add t.draws.(c.port) ~client:c ~weight:(weight_of c));
  t.circuits <- c :: t.circuits

let add_circuit t ~name ~output_port ~tickets ~rate =
  if output_port < 0 || output_port >= t.ports then
    invalid_arg "Switch.add_circuit: port out of range";
  if tickets < 0 then invalid_arg "Switch.add_circuit: negative tickets";
  if rate < 0. || rate > 1. then invalid_arg "Switch.add_circuit: rate not in [0,1]";
  let c =
    {
      id = t.next_id;
      name;
      port = output_port;
      tickets;
      value = float_of_int tickets;
      funding = None;
      handle = None;
      rate;
      buffer = Queue.create ();
      delivered = 0;
      dropped = 0;
      delay_sum = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  register t c;
  c

let add_funded_circuit t ~name ~output_port ?(amount = 1000) ~rate
    ~currency () =
  if output_port < 0 || output_port >= t.ports then
    invalid_arg "Switch.add_funded_circuit: port out of range";
  if rate < 0. || rate > 1. then
    invalid_arg "Switch.add_funded_circuit: rate not in [0,1]";
  let tr =
    match t.ftrack with
    | Some tr -> tr
    | None -> invalid_arg "Switch.add_funded_circuit: created without ~funding"
  in
  let sys = Funded.Tracker.system tr in
  let fd = Funded.attach sys ~currency ~amount in
  Funded.set_active fd false (* idle until the first cell arrives *);
  let c =
    {
      id = t.next_id;
      name;
      port = output_port;
      tickets = 0;
      value = Funded.value (F.Valuation.make sys) fd;
      funding = Some fd;
      handle = None;
      rate;
      buffer = Queue.create ();
      delivered = 0;
      dropped = 0;
      delay_sum = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  register t c;
  Funded.Tracker.add tr fd c;
  c

let set_tickets t c tickets =
  if tickets < 0 then invalid_arg "Switch.set_tickets: negative tickets";
  c.tickets <- tickets;
  if c.funding = None then begin
    c.value <- float_of_int tickets;
    update_weight t c
  end

let set_rate _t c rate =
  if rate < 0. || rate > 1. then invalid_arg "Switch.set_rate: rate not in [0,1]";
  c.rate <- rate

let circuit_name c = c.name

let set_buffered t c now_buffered =
  t.buffered_per_port.(c.port) <-
    t.buffered_per_port.(c.port) + (if now_buffered then 1 else -1);
  (match c.funding with
  | Some fd -> Funded.set_active fd now_buffered
  | None -> ());
  update_weight t c

(* Re-derive funded circuits' values from the funding graph: the tracker
   hands over exactly the circuits funded by currencies that moved. *)
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

let arrivals t =
  List.iter
    (fun c ->
      if c.rate > 0. && Rng.float_unit t.rng < c.rate then begin
        if Queue.length c.buffer >= t.capacity then c.dropped <- c.dropped + 1
        else begin
          let was_empty = Queue.is_empty c.buffer in
          Queue.push t.slot c.buffer;
          if was_empty then set_buffered t c true
        end
      end)
    (List.rev t.circuits)

let publish_draw t c =
  if Obs.Bus.active t.bus then
    Obs.Bus.emit t.bus ~time:t.slot
      (Obs.Event.Resource_draw
         {
           who = Obs.Event.actor_of ~tid:c.id ~tname:c.name;
           resource = Printf.sprintf "switch:p%d" c.port;
           contenders = t.buffered_per_port.(c.port);
           total_weight = Draw.total t.draws.(c.port);
         })

let transmit_port t port =
  if t.buffered_per_port.(port) > 0 then begin
    (* Slot-based pick. Batching with [draw_k] would not be faithful here:
       arrivals interleave with transmissions slot by slot on the same RNG
       stream, so each port's lottery must consume randomness exactly when
       its slot comes up. *)
    let winner =
      let s = Draw.draw_slot t.draws.(port) t.rng in
      if s >= 0 then begin
        let c = Draw.client_at t.draws.(port) s in
        publish_draw t c;
        Some c
      end
      else
        (* buffered circuits but zero total weight: first-created
           buffered circuit on this port (t.circuits is reversed, so
           keep the last match) *)
        List.fold_left
          (fun acc c ->
            if c.port = port && not (Queue.is_empty c.buffer) then Some c
            else acc)
          None t.circuits
    in
    match winner with
    | None -> ()
    | Some w ->
        let arrived = Queue.pop w.buffer in
        if Queue.is_empty w.buffer then set_buffered t w false;
        w.delivered <- w.delivered + 1;
        w.delay_sum <- w.delay_sum + (t.slot - arrived);
        t.sent_per_port.(port) <- t.sent_per_port.(port) + 1
  end

let step t ~slots =
  for _ = 1 to slots do
    refresh t;
    arrivals t;
    for port = 0 to t.ports - 1 do
      transmit_port t port
    done;
    t.slot <- t.slot + 1
  done

let now t = t.slot
let delivered _t c = c.delivered
let dropped _t c = c.dropped
let backlog _t c = Queue.length c.buffer

let mean_delay _t c =
  if c.delivered = 0 then nan
  else float_of_int c.delay_sum /. float_of_int c.delivered

let port_utilization t port =
  if port < 0 || port >= t.ports then invalid_arg "Switch.port_utilization: bad port";
  if t.slot = 0 then 0.
  else float_of_int t.sent_per_port.(port) /. float_of_int t.slot
