module Rng = Lotto_prng.Rng
module Draw = Lotto_draw.Draw
module Obs = Lotto_obs

type policy = Inverse_lottery | Global_lru | Global_random

type client = {
  seat : Funded.seat;
  mutable handle : client Draw.handle option;
  working_set : int;
  resident : (int, int) Hashtbl.t; (* vpage -> last-use stamp *)
  mutable faults : int;
  mutable accesses : int;
  mutable evictions : int;
}

type t = {
  pol : policy;
  frames : int;
  rng : Rng.t;
  draw : client Draw.t; (* victim lottery (unused under Global_lru) *)
  seats : client Funded.table;
  bus : Obs.Bus.t;
  mutable clients : client list; (* reverse creation order *)
  mutable used : int;
  mutable clock : int; (* LRU stamp source *)
  mutable total_value : float; (* cached T for the (1 - t_i/T) factor *)
  mutable wdirty : bool; (* T moved: every inverse weight needs a rebuild *)
}

let create ?(policy = Inverse_lottery) ?funding ~frames ~rng () =
  if frames <= 0 then invalid_arg "Inverse_memory.create: frames <= 0";
  {
    pol = policy;
    frames;
    rng;
    draw = Draw.of_mode Draw.List;
    seats = Funded.table funding;
    bus = Obs.Bus.create ();
    clients = [];
    used = 0;
    clock = 0;
    total_value = 0.;
    wdirty = false;
  }

let policy t = t.pol
let events t = t.bus

(* The paper's victim-selection weight: (1 - t_i/T) scaled by the fraction
   of physical memory the client occupies. Clients holding no frames cannot
   lose. *)
let weight_of t c =
  let occ = Hashtbl.length c.resident in
  match t.pol with
  | Global_lru -> 0.
  | Global_random -> float_of_int occ (* uniform over resident frames *)
  | Inverse_lottery ->
      if occ = 0 then 0.
      else begin
        let ticket_part =
          if t.total_value <= 0. then 1. else 1. -. (c.seat.value /. t.total_value)
        in
        let occupancy = float_of_int occ /. float_of_int t.frames in
        (* A lone over-provisioned client (t_i = T) still has to self-evict. *)
        Float.max ticket_part 1e-9 *. occupancy
      end

let update_weight t c =
  match c.handle with
  | Some h -> Draw.set_weight t.draw h (weight_of t c)
  | None -> ()

(* Funded values are revalued per dirtied currency (scoped change events),
   but the inverse factor (1 - t_i/T) couples every weight to the total T:
   whenever any share actually moved — or membership/tickets changed — T and
   all weights are rebuilt. That rebuild is O(clients) float work with no
   funding-graph walks; while shares are quiescent, victim picks skip it
   entirely. *)
let revalue t _ moved = if moved then t.wdirty <- true

let refresh t =
  Funded.refresh t.seats t revalue;
  if t.wdirty then begin
    t.wdirty <- false;
    t.total_value <- List.fold_left (fun acc c -> acc +. c.seat.value) 0. t.clients;
    List.iter (fun c -> update_weight t c) t.clients
  end

let value t c =
  refresh t;
  c.seat.value

let register t ~working_set seat =
  let c =
    {
      seat;
      handle = None;
      working_set;
      resident = Hashtbl.create 64;
      faults = 0;
      accesses = 0;
      evictions = 0;
    }
  in
  c.handle <- Some (Draw.add t.draw ~client:c ~weight:0.);
  t.clients <- c :: t.clients;
  t.wdirty <- true;
  c

let add_client t ~name ~tickets ~working_set =
  let who = "Inverse_memory.add_client" in
  if working_set <= 0 then invalid_arg (who ^ ": working_set <= 0");
  register t ~working_set (Funded.raw t.seats ~who ~name ~tickets)

(* Memory rights stay active even while the client isn't faulting — it
   holds frames the whole time, unlike an idle I/O stream. *)
let add_funded_client t ~name ?(amount = 1000) ~working_set ~currency () =
  let who = "Inverse_memory.add_funded_client" in
  if working_set <= 0 then invalid_arg (who ^ ": working_set <= 0");
  Funded.funded t.seats ~who ~name ~amount ~currency ~active:true
    (register t ~working_set)

let set_tickets t c tickets =
  if Funded.set_tickets ~who:"Inverse_memory.set_tickets" c.seat tickets then
    t.wdirty <- true

let client_name c = c.seat.name

let evict_lru_of t victim =
  let best = ref None in
  Hashtbl.iter
    (fun vpage stamp ->
      match !best with
      | None -> best := Some (vpage, stamp)
      | Some (_, s) -> if stamp < s then best := Some (vpage, stamp))
    victim.resident;
  match !best with
  | None -> assert false (* victims are chosen among resident-page holders *)
  | Some (vpage, _) ->
      Hashtbl.remove victim.resident vpage;
      victim.evictions <- victim.evictions + 1;
      t.used <- t.used - 1;
      update_weight t victim

let evict_random_of t victim =
  let n = Hashtbl.length victim.resident in
  let target = Rng.int_below t.rng n in
  let i = ref 0 in
  let chosen = ref None in
  Hashtbl.iter
    (fun vpage _ ->
      if !i = target then chosen := Some vpage;
      incr i)
    victim.resident;
  match !chosen with
  | None -> assert false
  | Some vpage ->
      Hashtbl.remove victim.resident vpage;
      victim.evictions <- victim.evictions + 1;
      t.used <- t.used - 1;
      update_weight t victim

let publish_draw t c =
  if Obs.Bus.active t.bus then begin
    let holders =
      List.fold_left
        (fun acc c -> if Hashtbl.length c.resident > 0 then acc + 1 else acc)
        0 t.clients
    in
    Funded.publish t.bus ~time:t.clock ~resource:"memory" ~contenders:holders
      ~total:(Draw.total t.draw) c.seat
  end

let pick_victim t =
  match t.pol with
  | Global_lru ->
      (* deterministic scan, no lottery *)
      let best = ref None in
      List.iter
        (fun c ->
          Hashtbl.iter
            (fun _ stamp ->
              match !best with
              | None -> best := Some (c, stamp)
              | Some (_, s) -> if stamp < s then best := Some (c, stamp))
            c.resident)
        t.clients;
      (match !best with Some (c, _) -> c | None -> assert false)
  | Global_random | Inverse_lottery -> (
      refresh t;
      match Draw.draw_client t.draw t.rng with
      | Some c ->
          publish_draw t c;
          c
      | None -> assert false (* full memory implies a positive-weight holder *))

let access t c vpage =
  if vpage < 0 || vpage >= c.working_set then
    invalid_arg "Inverse_memory.access: page outside working set";
  c.accesses <- c.accesses + 1;
  t.clock <- t.clock + 1;
  if Hashtbl.mem c.resident vpage then begin
    Hashtbl.replace c.resident vpage t.clock;
    `Hit
  end
  else begin
    c.faults <- c.faults + 1;
    if t.used >= t.frames then begin
      let victim = pick_victim t in
      match t.pol with
      | Global_random -> evict_random_of t victim
      | Global_lru | Inverse_lottery -> evict_lru_of t victim
    end;
    Hashtbl.replace c.resident vpage t.clock;
    t.used <- t.used + 1;
    update_weight t c;
    `Fault
  end

type pattern = Uniform | Zipf of float

(* Zipf sampling by inversion over precomputed cumulative weights. *)
let zipf_sampler s n =
  let weights = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** s)) in
  let cumulative = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cumulative.(i) <- !acc)
    weights;
  let total = !acc in
  fun rng ->
    let u = Rng.float_unit rng *. total in
    (* binary search for the first cumulative weight above u *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

let simulate ?(pattern = Uniform) t ~steps =
  let clients = Array.of_list (List.rev t.clients) in
  if Array.length clients = 0 then invalid_arg "Inverse_memory.simulate: no clients";
  let samplers =
    Array.map
      (fun c ->
        match pattern with
        | Uniform -> fun rng -> Rng.int_below rng c.working_set
        | Zipf s ->
            if s <= 0. then invalid_arg "Inverse_memory.simulate: zipf s <= 0";
            zipf_sampler s c.working_set)
      clients
  in
  for i = 0 to steps - 1 do
    let idx = i mod Array.length clients in
    let c = clients.(idx) in
    ignore (access t c (samplers.(idx) t.rng))
  done

let resident _t c = Hashtbl.length c.resident
let faults _t c = c.faults
let accesses _t c = c.accesses
let evictions_suffered _t c = c.evictions
let frames_free t = t.frames - t.used
