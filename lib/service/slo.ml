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

let summary t ~horizon =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %9s %9s %8s %9s %9s %9s %9s %9s\n" "tenant"
       "arrivals" "served" "shed" "inflight" "goodput/s" "p50(ms)" "p99(ms)"
       "p999(ms)");
  List.iter
    (fun ten ->
      Buffer.add_string buf
        (Printf.sprintf "%-10s %9d %9d %8d %9d %9.1f %9.1f %9.1f %9.1f\n"
           ten.name ten.arrivals ten.served ten.shed (in_flight ten)
           (goodput_per_s ten ~horizon)
           (percentile_ms ten 50.) (percentile_ms ten 99.)
           (percentile_ms ten 99.9)))
    (tenants t);
  Buffer.contents buf

(* Prometheus text exposition, following Lotto_obs.Metrics.to_prom. *)

let to_prom ?(namespace = "lotto_slo") t =
  let buf = Buffer.create 2048 in
  let tens = tenants t in
  let label ten =
    Printf.sprintf "{tenant=\"%s\"}" (Lotto_obs.Metrics.prom_escape ten.name)
  in
  let counter name help get =
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s_%s %s\n# TYPE %s_%s counter\n" namespace name
         help namespace name);
    List.iter
      (fun ten ->
        Buffer.add_string buf
          (Printf.sprintf "%s_%s%s %d\n" namespace name (label ten) (get ten)))
      tens
  in
  counter "requests_total" "Open-loop arrivals generated." (fun x -> x.arrivals);
  counter "served_total" "Requests answered within the run." (fun x -> x.served);
  counter "shed_total" "Requests shed by bounded-port admission." (fun x ->
      x.shed);
  counter "in_flight" "Requests neither served nor shed at capture."
    in_flight;
  counter "io_submitted_total" "I/O requests submitted on the tenant's behalf."
    (fun x -> x.io_submitted);
  counter "io_served_total" "I/O slots won by the tenant's funded client."
    (fun x -> x.io_served);
  Buffer.add_string buf
    (Printf.sprintf "# HELP %s_latency_us End-to-end latency, µs of virtual \
                     time.\n# TYPE %s_latency_us summary\n"
       namespace namespace);
  List.iter
    (fun ten ->
      if Hdr.count ten.lat > 0 then
        List.iter
          (fun q ->
            Buffer.add_string buf
              (Printf.sprintf "%s_latency_us{tenant=\"%s\",quantile=\"%g\"} %g\n"
                 namespace (Lotto_obs.Metrics.prom_escape ten.name) q
                 (Hdr.percentile ten.lat (q *. 100.))))
          [ 0.5; 0.9; 0.99; 0.999 ];
      Buffer.add_string buf
        (Printf.sprintf "%s_latency_us_sum%s %d\n" namespace (label ten)
           (Hdr.sum ten.lat));
      Buffer.add_string buf
        (Printf.sprintf "%s_latency_us_count%s %d\n" namespace (label ten)
           (Hdr.count ten.lat)))
    tens;
  Buffer.contents buf
