open Lotto_sim
module Ls = Lotto_sched.Lottery_sched
module Decay = Lotto_sched.Decay_usage
module Io = Lotto_res.Io_bandwidth
module Rng = Lotto_prng.Rng
module Metrics = Lotto_obs.Metrics

type sched_kind = Lottery | Decay_usage

type config = {
  seed : int;
  horizon : Time.t;
  quantum : Time.t;
  sched_kind : sched_kind;
  io_slot : Time.t option;  (** I/O device slot interval; [None] = no device *)
  tenants : Tenant.spec list;
}

let config ?(seed = 94) ?(horizon = Time.seconds 60) ?(quantum = Time.ms 10)
    ?(sched_kind = Lottery) ?io_slot tenants =
  if tenants = [] then invalid_arg "Service.config: no tenants";
  { seed; horizon; quantum; sched_kind; io_slot; tenants }

type tenant_report = {
  t_name : string;
  t_share : int;
  arrivals : int;
  served : int;
  shed : int;
  in_flight : int;
  kernel_shed : int;  (** sheds counted at the tenant's port by the kernel *)
  goodput_per_s : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  worker_quanta : int;  (** CPU ticks consumed by the tenant's workers *)
  io_submitted : int;
  io_served : int;
}

type report = {
  tenants : tenant_report list;
  chi_square_p : float option;
      (** worker CPU shares vs ticket entitlements, [Metrics.fairness] *)
  accounted : bool;  (** conservation law held for every tenant *)
  shed_consistent : bool;
      (** client-observed sheds equal kernel port counts, per tenant *)
  total_quanta : int;
  slices : int;
  prom : string;  (** SLO families at capture, Prometheus text format *)
}

(* Per-tenant runtime state wired up during construction. *)
type runtime = {
  spec : Tenant.spec;
  pool : Pool.t;
  client : Client.t;
  io_client : Io.client option;
}

type world = {
  horizon : Time.t;
  metrics : Metrics.t;
  slo : Slo.t;
  io_dev : Io.t option;
  runtimes : runtime list;
}

let build ?ls ~rng kernel cfg =
  if (cfg.sched_kind = Lottery) <> Option.is_some ls then
    invalid_arg "Service.build: a lottery exactly when sched_kind is Lottery";
  let io_rng = Rng.split rng in
  (* One split stream per tenant for arrivals, drawn before the scheduler
     consumes the parent stream, so a tenant's schedule depends only on
     (seed, tenant order) — not on scheduling decisions. *)
  let tenant_rngs = List.map (fun _ -> Rng.split rng) cfg.tenants in
  let metrics = Metrics.create () in
  Metrics.attach metrics (Kernel.bus kernel);
  let slo = Slo.create () in
  let io_dev =
    Option.map
      (fun _ -> Io.create ?funding:(Option.map Ls.funding ls) ~rng:io_rng ())
      cfg.io_slot
  in
  let fund ls th amount cur = ignore (Ls.fund_thread ls th ~amount ~from:cur) in
  let runtimes =
    List.map2
      (fun (spec : Tenant.spec) trng ->
        let currency =
          Option.map
            (fun ls ->
              let cur = Ls.make_currency ls spec.name in
              ignore
                (Ls.fund_currency ls ~target:cur ~amount:spec.share
                   ~from:(Ls.base_currency ls));
              (ls, cur))
            ls
        in
        let io_client =
          match io_dev with
          | Some dev when spec.io_per_req > 0 ->
              Some
                (match currency with
                | Some (_, cur) -> Io.add_funded_client dev ~name:spec.name ~currency:cur ()
                | None -> Io.add_client dev ~name:spec.name ~tickets:spec.share)
          | _ -> None
        in
        let ten = Slo.tenant slo spec.name in
        let on_served () =
          match io_client with
          | Some c ->
              ten.Slo.io_submitted <- ten.Slo.io_submitted + spec.io_per_req;
              Io.submit (Option.get io_dev) c ~requests:spec.io_per_req
          | None -> ()
        in
        let pool = Pool.spawn kernel ~spec ~on_served () in
        let client = Client.spawn kernel ~spec ~rng:trng ~slo ~port:(Pool.port pool) in
        Option.iter
          (fun (ls, cur) ->
            List.iter (fun w -> fund ls w 100 cur) (Pool.workers pool);
            List.iter (fun s -> fund ls s 1 cur) (Client.stubs client);
            fund ls (Client.generator client) 1 cur)
          currency;
        { spec; pool; client; io_client })
      cfg.tenants tenant_rngs
  in
  (match (io_dev, cfg.io_slot) with
  | Some dev, Some slot ->
      let device =
        Kernel.spawn kernel ~name:"io.device" (fun () ->
            while true do
              Api.sleep slot;
              ignore (Io.serve_slot dev)
            done)
      in
      Option.iter (fun ls -> fund ls device 50 (Ls.base_currency ls)) ls
  | _ -> ());
  { horizon = cfg.horizon; metrics; slo; io_dev; runtimes }

let slo w = w.slo

(* The two books, per tenant: conservation at the client, and the sheds
   its stubs saw against its port's count. *)
let check w =
  List.concat_map
    (fun rt ->
      let name = rt.spec.name and port = Pool.shed_count rt.pool in
      let seen = (Slo.tenant w.slo name).Slo.shed in
      (if Client.accounted rt.client then [] else [ name ^ ": arrivals unaccounted" ])
      @
      if seen = port then []
      else [ Printf.sprintf "%s: stubs saw %d sheds, the port counted %d" name seen port ])
    w.runtimes

let capture { horizon; metrics; slo; io_dev; runtimes } (summary : Types.run_summary) =
  (* Pull I/O completions into the SLO rows before rendering. *)
  List.iter
    (fun rt ->
      match (io_dev, rt.io_client) with
      | Some dev, Some c ->
          let ten = Slo.tenant slo rt.spec.name in
          ten.Slo.io_served <- Io.served dev c
      | _ -> ())
    runtimes;
  let entitled =
    List.concat_map
      (fun rt ->
        let e = float_of_int rt.spec.share /. float_of_int rt.spec.workers in
        List.map (fun th -> (Kernel.thread_id th, e)) (Pool.workers rt.pool))
      runtimes
  in
  let _, chi_square_p = Metrics.fairness metrics ~entitled in
  let tenants =
    List.map
      (fun rt ->
        let ten = Slo.tenant slo rt.spec.name in
        {
          t_name = rt.spec.name;
          t_share = rt.spec.share;
          arrivals = ten.Slo.arrivals;
          served = ten.Slo.served;
          shed = ten.Slo.shed;
          in_flight = Slo.in_flight ten;
          kernel_shed = Pool.shed_count rt.pool;
          goodput_per_s = Slo.goodput_per_s ten ~horizon;
          p50_ms = Slo.percentile_ms ten 50.;
          p99_ms = Slo.percentile_ms ten 99.;
          p999_ms = Slo.percentile_ms ten 99.9;
          worker_quanta =
            List.fold_left
              (fun acc th -> acc + Kernel.cpu_time th)
              0 (Pool.workers rt.pool);
          io_submitted = ten.Slo.io_submitted;
          io_served = ten.Slo.io_served;
        })
      runtimes
  in
  {
    tenants;
    chi_square_p;
    accounted = List.for_all (fun rt -> Client.accounted rt.client) runtimes;
    shed_consistent =
      List.for_all
        (fun rt ->
          (Slo.tenant slo rt.spec.name).Slo.shed = Pool.shed_count rt.pool)
        runtimes;
    total_quanta = Metrics.total_quanta metrics;
    slices = summary.Types.slices;
    prom = Slo.to_prom slo;
  }

let run ?(cpus = 1) cfg =
  let rng = Rng.create ~seed:cfg.seed () in
  (* the lottery takes no draw before the kernel runs, so [build]'s
     splits still come first off [rng] *)
  let ls =
    match cfg.sched_kind with
    | Lottery -> Some (Ls.create ~shards:cpus ~rng ())
    | Decay_usage -> None
  in
  let sched = match ls with Some ls -> Ls.sched ls | None -> Decay.(sched (create ())) in
  let kernel = Kernel.create ~quantum:cfg.quantum ~cpus ~sched () in
  let w = build ?ls ~rng kernel cfg in
  capture w (Kernel.run kernel ~until:cfg.horizon)

let find report name = List.find (fun tr -> tr.t_name = name) report.tenants
