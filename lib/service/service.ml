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

let run ?(cpus = 1) cfg =
  let rng = Rng.create ~seed:cfg.seed () in
  let io_rng = Rng.split rng in
  (* One split stream per tenant for arrivals, drawn before the scheduler
     consumes the parent stream, so a tenant's schedule depends only on
     (seed, tenant order) — not on scheduling decisions. *)
  let tenant_rngs = List.map (fun _ -> Rng.split rng) cfg.tenants in
  let ls, sched =
    match cfg.sched_kind with
    | Lottery ->
        let ls = Ls.create ~shards:cpus ~rng () in
        (Some ls, Ls.sched ls)
    | Decay_usage -> (None, Decay.(sched (create ())))
  in
  let kernel = Kernel.create ~quantum:cfg.quantum ~cpus ~sched () in
  let metrics = Metrics.create () in
  Metrics.attach metrics (Kernel.bus kernel);
  let slo = Slo.create () in
  let io_dev =
    match cfg.io_slot with
    | None -> None
    | Some _ -> (
        match ls with
        | Some ls -> Some (Io.create ~funding:(Ls.funding ls) ~rng:io_rng ())
        | None -> Some (Io.create ~rng:io_rng ()))
  in
  let fund th ~amount ~from =
    match ls with
    | Some ls -> ignore (Ls.fund_thread ls th ~amount ~from)
    | None -> ()
  in
  let runtimes =
    List.map2
      (fun (spec : Tenant.spec) trng ->
        let currency =
          match ls with
          | Some ls ->
              let cur = Ls.make_currency ls spec.name in
              ignore
                (Ls.fund_currency ls ~target:cur ~amount:spec.share
                   ~from:(Ls.base_currency ls));
              Some cur
          | None -> None
        in
        let io_client =
          match io_dev with
          | Some dev when spec.io_per_req > 0 -> (
              match currency with
              | Some cur ->
                  Some (Io.add_funded_client dev ~name:spec.name ~currency:cur ())
              | None ->
                  Some (Io.add_client dev ~name:spec.name ~tickets:spec.share))
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
        (match currency with
        | Some cur ->
            List.iter
              (fun w -> fund w ~amount:100 ~from:cur)
              (Pool.workers pool);
            List.iter (fun s -> fund s ~amount:1 ~from:cur) (Client.stubs client);
            fund (Client.generator client) ~amount:1 ~from:cur
        | None -> ());
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
      (match ls with
      | Some ls ->
          ignore
            (Ls.fund_thread ls device ~amount:50 ~from:(Ls.base_currency ls))
      | None -> ())
  | _ -> ());
  let summary = Kernel.run kernel ~until:cfg.horizon in
  (* Capture: pull I/O completions into the SLO rows before rendering. *)
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
        let w = float_of_int rt.spec.share /. float_of_int rt.spec.workers in
        List.map (fun th -> (Kernel.thread_id th, w)) (Pool.workers rt.pool))
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
          goodput_per_s = Slo.goodput_per_s ten ~horizon:cfg.horizon;
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

let find report name = List.find (fun tr -> tr.t_name = name) report.tenants
