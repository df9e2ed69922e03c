module Rng = Lotto_prng.Rng
module Draw = Lotto_draw.Draw
module Obs = Lotto_obs

type circuit = {
  seat : Funded.seat;
  port : int;
  mutable handle : circuit Draw.handle option;
  rate : float;
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
  seats : circuit Funded.table;
  bus : Obs.Bus.t;
  mutable circuits : circuit list; (* reverse creation order *)
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
    seats = Funded.table funding;
    bus = Obs.Bus.create ();
    circuits = [];
    buffered_per_port = Array.make ports 0;
    slot = 0;
    sent_per_port = Array.make ports 0;
  }

let events t = t.bus

let weight_of c = if Queue.is_empty c.buffer then 0. else c.seat.value

let update_weight t c =
  match c.handle with
  | Some h -> Draw.set_weight t.draws.(c.port) h (weight_of c)
  | None -> ()

let register t ~port ~rate seat =
  let c =
    {
      seat;
      port;
      handle = None;
      rate;
      buffer = Queue.create ();
      delivered = 0;
      dropped = 0;
      delay_sum = 0;
    }
  in
  c.handle <- Some (Draw.add t.draws.(port) ~client:c ~weight:(weight_of c));
  t.circuits <- c :: t.circuits;
  c

let check_circuit t ~who ~output_port ~rate =
  if output_port < 0 || output_port >= t.ports then
    invalid_arg (who ^ ": port out of range");
  if rate < 0. || rate > 1. then invalid_arg (who ^ ": rate not in [0,1]")

let add_circuit t ~name ~output_port ~tickets ~rate =
  let who = "Switch.add_circuit" in
  check_circuit t ~who ~output_port ~rate;
  register t ~port:output_port ~rate (Funded.raw t.seats ~who ~name ~tickets)

(* idle until the first cell arrives *)
let add_funded_circuit t ~name ~output_port ?(amount = 1000) ~rate ~currency () =
  let who = "Switch.add_funded_circuit" in
  check_circuit t ~who ~output_port ~rate;
  Funded.funded t.seats ~who ~name ~amount ~currency ~active:false
    (register t ~port:output_port ~rate)

let set_tickets t c tickets =
  if Funded.set_tickets ~who:"Switch.set_tickets" c.seat tickets then update_weight t c

let set_buffered t c now_buffered =
  t.buffered_per_port.(c.port) <-
    t.buffered_per_port.(c.port) + (if now_buffered then 1 else -1);
  Funded.set_active t.seats c.seat now_buffered;
  update_weight t c

(* The seat core hands over exactly the funded circuits whose currencies
   moved. *)
let revalue t c _moved = update_weight t c
let refresh t = Funded.refresh t.seats t revalue

let value t c =
  refresh t;
  c.seat.value

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
    Funded.publish t.bus ~time:t.slot
      ~resource:(Printf.sprintf "switch:p%d" c.port)
      ~contenders:t.buffered_per_port.(c.port) ~total:(Draw.total t.draws.(c.port))
      c.seat

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
