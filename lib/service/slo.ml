module Hdr = Lotto_obs.Hdr

(* e2e latencies in µs of virtual time; 2^-5 relative error, values up to
   2^30 µs (~18 virtual minutes) before clamping *)
let make_hdr () = Hdr.create ~sub_bits:5 ~max_value:(1 lsl 30) ()

type tenant = {
  name : string;
  lat : Hdr.t;  (** arrival → reply-received, µs of virtual time *)
  mutable arrivals : int;
  mutable served : int;
  mutable shed : int;
  mutable io_submitted : int;
  mutable io_served : int;
}

type t = {
  tbl : (string, tenant) Hashtbl.t;
  mutable order : tenant list;  (** reverse first-seen order *)
}

let create () = { tbl = Hashtbl.create 8; order = [] }

let tenant t name =
  match Hashtbl.find_opt t.tbl name with
  | Some ten -> ten
  | None ->
      let ten =
        {
          name;
          lat = make_hdr ();
          arrivals = 0;
          served = 0;
          shed = 0;
          io_submitted = 0;
          io_served = 0;
        }
      in
      Hashtbl.replace t.tbl name ten;
      t.order <- ten :: t.order;
      ten

let tenants t = List.rev t.order

let record_arrival ten = ten.arrivals <- ten.arrivals + 1

let record_served ten ~latency_us =
  ten.served <- ten.served + 1;
  Hdr.record ten.lat latency_us

let record_shed ten = ten.shed <- ten.shed + 1

let in_flight ten = ten.arrivals - ten.served - ten.shed

let goodput_per_s ten ~horizon =
  if horizon <= 0 then 0.
  else float_of_int ten.served /. Lotto_sim.Time.to_seconds horizon

let percentile_ms ten p =
  if Hdr.count ten.lat = 0 then nan else Hdr.percentile ten.lat p /. 1000.

let to_prom t =
  let buf = Buffer.create 2048 in
  let rows get =
    List.map
      (fun ten ->
        ( Printf.sprintf "tenant=\"%s\"" (Lotto_obs.Metrics.prom_escape ten.name),
          get ten ))
      (tenants t)
  in
  let family name help samples =
    Lotto_obs.Metrics.prom_family buf ~name:("lotto_slo_" ^ name) ~help samples
  in
  family "requests_total" "Open-loop arrivals generated."
    (`Counter (rows (fun x -> x.arrivals)));
  family "served_total" "Requests answered within the run."
    (`Counter (rows (fun x -> x.served)));
  family "shed_total" "Requests shed by bounded-port admission."
    (`Counter (rows (fun x -> x.shed)));
  (* arrivals - served - shed falls as requests resolve: a gauge *)
  family "in_flight" "Requests neither served nor shed at capture."
    (`Gauge (rows in_flight));
  family "io_submitted_total" "I/O requests submitted on the tenant's behalf."
    (`Counter (rows (fun x -> x.io_submitted)));
  family "io_served_total" "I/O slots won by the tenant's funded client."
    (`Counter (rows (fun x -> x.io_served)));
  family "latency_us" "End-to-end latency, µs of virtual time."
    (`Summary (rows (fun x -> x.lat)));
  Buffer.contents buf
