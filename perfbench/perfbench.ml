(* Host-cost benchmark of the lottery-scheduling stack.

   Three named workloads run through the public library API. A plain run
   reports host cost per unit of simulated work (process CPU time, minor
   words, set-up time); a traced run wraps the scheduler record handed to
   [Kernel.create], installs the phase profilers and times the
   benchmark's own calls, and attributes the window's host time to the
   library's layers. One run prints one JSON object on stdout; run.py
   builds the program, launches it and checks the result. README.md
   describes the workloads and the metric map. *)

open Core
module Ls = Lottery_sched
module Hdr = Obs.Hdr
module Profile = Obs.Profile
module Metrics = Obs.Metrics
module Tenant = Service.Tenant
module Arrivals = Service.Arrivals
module Slo = Service.Slo
module Client = Service.Client
module SPool = Service.Pool
module Svc = Service.Harness
module Io = Io_bandwidth

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Outside-in tracer                                                   *)
(* ------------------------------------------------------------------ *)

(* Spans around every call into the scheduler record and around the
   benchmark's own calls, kept in flat arrays (no allocation per span).
   A span's self time is its duration minus its child spans. The phase
   profiler's clock runs through [prof_clock], which tells dispatch from
   publish by where the kernel is in its round: a clock read outside
   [select] while a selected slice awaits [account] opens dispatch; any
   other one opens a publish. *)
module Trace = struct
  let c_select = 0
  let c_account = 1
  let c_ready = 2
  let c_unready = 3
  let c_transfer = 4
  let c_lifecycle = 5
  let c_pick = 6
  let c_mutate = 7
  let c_spawn_kill = 8
  let c_io_serve = 9
  let c_io_submit = 10
  let ncat = 11
  let calls = Array.make ncat 0
  let total = Array.make ncat 0
  let self = Array.make ncat 0
  let top = Array.make ncat 0
  let in_dispatch = Array.make ncat 0
  let words = Array.make ncat 0.
  let select_hdr = Hdr.create ~sub_bits:5 ~max_value:(1 lsl 40) ()
  let max_depth = 8
  let s_cat = Array.make max_depth 0
  let s_t0 = Array.make max_depth 0
  let s_child = Array.make max_depth 0
  let s_w0 = Array.make max_depth 0.
  let depth = ref 0

  (* slices selected whose [account] has not run yet *)
  let pending = ref 0
  let in_select = ref false
  let account_seen = ref false
  let pst = ref 0
  let d_t0 = ref 0
  let p_t0 = ref 0
  let d_total = ref 0
  let d_count = ref 0
  let p_in = ref 0
  let p_out = ref 0
  let p_count = ref 0

  let reset () =
    List.iter
      (fun a -> Array.fill a 0 ncat 0)
      [ calls; total; self; top; in_dispatch ];
    Array.fill words 0 ncat 0.;
    Hdr.reset select_hdr;
    List.iter (fun r -> r := 0) [ d_total; d_count; p_in; p_out; p_count ]

  let enter cat =
    let d = !depth in
    s_cat.(d) <- cat;
    s_child.(d) <- 0;
    s_w0.(d) <- Gc.minor_words ();
    depth := d + 1;
    s_t0.(d) <- now_ns ()

  let leave () =
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let d = !depth - 1 in
    depth := d;
    let cat = s_cat.(d) in
    let dur = t1 - s_t0.(d) in
    calls.(cat) <- calls.(cat) + 1;
    total.(cat) <- total.(cat) + dur;
    self.(cat) <- self.(cat) + dur - s_child.(d);
    words.(cat) <- words.(cat) +. (w1 -. s_w0.(d));
    if d > 0 then s_child.(d - 1) <- s_child.(d - 1) + dur
    else begin
      top.(cat) <- top.(cat) + dur;
      if cat <> c_select && !pending > 0 then
        in_dispatch.(cat) <- in_dispatch.(cat) + dur
    end;
    if cat = c_select then Hdr.record select_hdr dur

  let prof_clock () =
    let t = now_ns () in
    (if not !in_select then
       match !pst with
       | 0 ->
           if !pending > 0 then begin
             pst := 1;
             d_t0 := t;
             account_seen := false
           end
           else begin
             pst := 3;
             p_t0 := t
           end
       | 1 ->
           if !account_seen then begin
             pst := 0;
             d_total := !d_total + (t - !d_t0);
             incr d_count
           end
           else begin
             pst := 2;
             p_t0 := t
           end
       | 2 ->
           pst := 1;
           p_in := !p_in + (t - !p_t0);
           incr p_count
       | _ ->
           pst := 0;
           p_out := !p_out + (t - !p_t0);
           incr p_count);
    t

  let wrap slices (s : Types.sched) : Types.sched =
    {
      s with
      attach =
        (fun th ->
          enter c_lifecycle;
          s.attach th;
          leave ());
      detach =
        (fun th ->
          enter c_lifecycle;
          s.detach th;
          leave ());
      ready =
        (fun th ->
          enter c_ready;
          s.ready th;
          leave ());
      unready =
        (fun th ->
          enter c_unready;
          s.unready th;
          leave ());
      select =
        (fun ~cpu ->
          enter c_select;
          in_select := true;
          let r = s.select ~cpu in
          in_select := false;
          leave ();
          (match r with
          | Some _ ->
              incr pending;
              incr slices
          | None -> ());
          r);
      account =
        (fun th ~used ~quantum ~blocked ->
          enter c_account;
          s.account th ~used ~quantum ~blocked;
          leave ();
          decr pending;
          account_seen := true);
      donate =
        (fun ~src ~dst ->
          enter c_transfer;
          s.donate ~src ~dst;
          leave ());
      revoke =
        (fun ~src ->
          enter c_transfer;
          s.revoke ~src;
          leave ());
      revoke_from =
        (fun ~src ~dst ->
          enter c_transfer;
          s.revoke_from ~src ~dst;
          leave ());
      pick_waiter =
        (fun l ->
          enter c_pick;
          let r = s.pick_waiter l in
          leave ();
          r);
    }
end

(* Untraced runs only count slices, so both modes share one unit. *)
let count_slices slices (s : Types.sched) : Types.sched =
  {
    s with
    select =
      (fun ~cpu ->
        let r = s.select ~cpu in
        (match r with Some _ -> incr slices | None -> ());
        r);
  }

let wrap_sched ~traced slices s =
  if traced then Trace.wrap slices s else count_slices slices s

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type world = {
  k : Kernel.t;
  ls : Ls.t;
  slices : int ref;
  units : unit -> int;  (** operations so far: slices, or resolved requests *)
  tick : unit -> unit;  (** the workload's own calls at each decision boundary *)
  checks : unit -> string list;  (** output checks at the end of the window *)
  digest : Buffer.t -> unit;  (** simulated statistics, deterministic per seed *)
  stats : unit -> (string * float) list;  (** simulated per-layer figures *)
}

type workload = {
  name : string;
  default_seed : int;
  warm : Time.t;  (** virtual time before the timed window *)
  chunk : Time.t;  (** virtual time per timed chunk *)
  sensitivity : float;
      (** how strongly the workload's speed follows the host-speed
          reference: the exponent its times are rescaled with *)
  build : traced:bool -> seed:int -> world;
}

let audit k ls =
  Kernel.check_invariants k @ Ls.check_funding_coherence ls (Kernel.threads k)

(* Seed kept aside for re-checking a claim on inputs not used while the
   change was written. *)
let held_out_seed = 4242

let digest_threads buf threads =
  List.iter
    (fun th ->
      Buffer.add_string buf (string_of_int (Kernel.cpu_time th));
      Buffer.add_char buf ',')
    threads

let span traced cat = if traced then Trace.enter cat
let unspan traced = if traced then Trace.leave ()

(* sched-scale: 10^5 compute-bound threads funded through 16 currencies,
   Tree draws, one CPU, funding quiescent. Each thread computes exactly one
   quantum per request, so every slice resumes its effect continuation. *)
let sched_scale_threads = 100_000
let sched_scale_quantum = Time.ms 10

let build_sched_scale ~traced ~seed =
  let rng = Rng.create ~seed () in
  let gen = Rng.split rng in
  let ls = Ls.create ~mode:Ls.Tree_mode ~rng () in
  let slices = ref 0 in
  let k =
    Kernel.create ~quantum:sched_scale_quantum
      ~sched:(wrap_sched ~traced slices (Ls.sched ls))
      ()
  in
  let base = Ls.base_currency ls in
  let curs =
    Array.init 16 (fun i ->
        let c = Ls.make_currency ls (Printf.sprintf "cur%d" i) in
        ignore
          (Ls.fund_currency ls ~target:c
             ~amount:(Rng.int_in gen ~lo:100 ~hi:1000)
             ~from:base);
        c)
  in
  let body () =
    while true do
      Api.compute sched_scale_quantum
    done
  in
  for i = 0 to sched_scale_threads - 1 do
    let th = Kernel.spawn k ~name:(Printf.sprintf "s%d" i) body in
    ignore
      (Ls.fund_thread ls th
         ~amount:(Rng.int_in gen ~lo:1 ~hi:100)
         ~from:curs.(Rng.int_below gen 16))
  done;
  {
    k;
    ls;
    slices;
    units = (fun () -> !slices);
    tick = ignore;
    checks = (fun () -> audit k ls);
    digest = (fun buf -> digest_threads buf (Kernel.threads k));
    stats = (fun () -> []);
  }

(* funding-churn: 64 currencies x 64 interactive threads on 4 CPUs with
   4 lottery shards. Every 10 ms of virtual time the benchmark inflates one
   currency's funding ticket, spawns one funded transient thread and kills
   the oldest transient once more than 32 exist. *)
let churn_currencies = 64
let churn_per_currency = 64
let churn_transients = 32
let churn_period = Time.ms 10

let interactive r () =
  while true do
    Api.compute (Rng.int_in r ~lo:200 ~hi:5000);
    Api.sleep (Rng.int_in r ~lo:5000 ~hi:55000)
  done

let build_funding_churn ~traced ~seed =
  let rng = Rng.create ~seed () in
  let gen = Rng.split rng in
  let ls = Ls.create ~mode:Ls.Tree_mode ~shards:4 ~rng () in
  let slices = ref 0 in
  let k =
    Kernel.create ~quantum:(Time.ms 10) ~cpus:4
      ~sched:(wrap_sched ~traced slices (Ls.sched ls))
      ()
  in
  let base = Ls.base_currency ls in
  let curs =
    Array.init churn_currencies (fun i ->
        Ls.make_currency ls (Printf.sprintf "cur%d" i))
  in
  let backing =
    Array.map
      (fun c ->
        Ls.fund_currency ls ~target:c
          ~amount:(Rng.int_in gen ~lo:100 ~hi:1000)
          ~from:base)
      curs
  in
  Array.iteri
    (fun ci cur ->
      for j = 0 to churn_per_currency - 1 do
        let r = Rng.split gen in
        let th =
          Kernel.spawn k ~name:(Printf.sprintf "i%d.%d" ci j) (interactive r)
        in
        ignore
          (Ls.fund_thread ls th ~amount:(Rng.int_in gen ~lo:1 ~hi:100) ~from:cur)
      done)
    curs;
  let transients = Queue.create () in
  let killed_cpu = ref 0 in
  let spawned = ref 0 in
  let next = ref churn_period in
  let tick () =
    while Kernel.now k >= !next do
      next := !next + churn_period;
      let c = Rng.int_below gen churn_currencies in
      let amount = Rng.int_in gen ~lo:100 ~hi:1000 in
      span traced Trace.c_mutate;
      Ls.set_ticket_amount ls backing.(c) amount;
      unspan traced;
      let r = Rng.split gen in
      span traced Trace.c_spawn_kill;
      let th = Kernel.spawn k ~name:"transient" (interactive r) in
      unspan traced;
      incr spawned;
      let amount = Rng.int_in gen ~lo:1 ~hi:100 in
      let from = curs.(Rng.int_below gen churn_currencies) in
      span traced Trace.c_mutate;
      ignore (Ls.fund_thread ls th ~amount ~from);
      unspan traced;
      Queue.push th transients;
      if Queue.length transients > churn_transients then begin
        let victim = Queue.pop transients in
        span traced Trace.c_spawn_kill;
        Kernel.kill k victim;
        unspan traced;
        killed_cpu := !killed_cpu + Kernel.cpu_time victim
      end
    done
  in
  {
    k;
    ls;
    slices;
    units = (fun () -> !slices);
    tick;
    checks = (fun () -> audit k ls @ Ls.check_sharding ls);
    digest =
      (fun buf ->
        Printf.bprintf buf "spawned=%d;killed_cpu=%d;" !spawned !killed_cpu;
        digest_threads buf (Kernel.threads k));
    stats = (fun () -> []);
  }

(* service-overload: the loaded arm of the service-insulation experiment,
   composed from the public service API exactly as [Service.Harness.run]
   composes it, so the benchmark owns the kernel. *)
let service_tenants =
  [
    Tenant.spec ~share:900 ~arrivals:(Arrivals.Poisson 207.) ~io_per_req:1 "A";
    Tenant.spec ~share:100 ~arrivals:(Arrivals.Poisson 200.) ~io_per_req:1 "B";
  ]

let service_default_seed = 94
let service_quantum = Time.ms 10
let service_io_slot = Time.ms 2

let compose_service ~traced ~seed =
  let rng = Rng.create ~seed () in
  let io_rng = Rng.split rng in
  let tenant_rngs = List.map (fun _ -> Rng.split rng) service_tenants in
  let ls = Ls.create ~shards:0 ~rng () in
  let slices = ref 0 in
  let k =
    Kernel.create ~quantum:service_quantum ~cpus:1
      ~sched:(wrap_sched ~traced slices (Ls.sched ls))
      ()
  in
  let metrics = Metrics.create () in
  Metrics.attach metrics (Kernel.bus k);
  let slo = Slo.create () in
  let dev = Io.create ~funding:(Ls.funding ls) ~rng:io_rng () in
  let clients =
    List.map2
      (fun (spec : Tenant.spec) trng ->
        let cur = Ls.make_currency ls spec.name in
        ignore
          (Ls.fund_currency ls ~target:cur ~amount:spec.share
             ~from:(Ls.base_currency ls));
        let io_client = Io.add_funded_client dev ~name:spec.name ~currency:cur () in
        let ten = Slo.tenant slo spec.name in
        let on_served () =
          ten.Slo.io_submitted <- ten.Slo.io_submitted + spec.io_per_req;
          span traced Trace.c_io_submit;
          Io.submit dev io_client ~requests:spec.io_per_req;
          unspan traced
        in
        let pool = SPool.spawn k ~spec ~on_served () in
        let client = Client.spawn k ~spec ~rng:trng ~slo ~port:(SPool.port pool) in
        let fund th amount = ignore (Ls.fund_thread ls th ~amount ~from:cur) in
        List.iter (fun th -> fund th 100) (SPool.workers pool);
        List.iter (fun th -> fund th 1) (Client.stubs client);
        fund (Client.generator client) 1;
        (spec, pool, client, io_client))
      service_tenants tenant_rngs
  in
  let device =
    Kernel.spawn k ~name:"io.device" (fun () ->
        while true do
          Api.sleep service_io_slot;
          span traced Trace.c_io_serve;
          ignore (Io.serve_slot dev);
          unspan traced
        done)
  in
  ignore (Ls.fund_thread ls device ~amount:50 ~from:(Ls.base_currency ls));
  let capture () =
    List.iter
      (fun ((spec : Tenant.spec), _, _, c) ->
        (Slo.tenant slo spec.name).Slo.io_served <- Io.served dev c)
      clients
  in
  let fairness () =
    let entitled =
      List.concat_map
        (fun ((spec : Tenant.spec), pool, _, _) ->
          let w = float_of_int spec.share /. float_of_int spec.workers in
          List.map (fun th -> (Kernel.thread_id th, w)) (SPool.workers pool))
        clients
    in
    snd (Metrics.fairness metrics ~entitled)
  in
  let resolved () =
    List.fold_left
      (fun acc (ten : Slo.tenant) -> acc + ten.Slo.served + ten.Slo.shed)
      0 (Slo.tenants slo)
  in
  let checks () =
    capture ();
    List.concat_map
      (fun ((spec : Tenant.spec), pool, client, _) ->
        let ten = Slo.tenant slo spec.name in
        (if Client.accounted client then []
         else [ spec.name ^ ": arrivals != served + shed + backlog + holding" ])
        @
        if ten.Slo.shed = SPool.shed_count pool then []
        else [ spec.name ^ ": client sheds != port shed count" ])
      clients
  in
  let digest buf =
    capture ();
    List.iter
      (fun (ten : Slo.tenant) ->
        Printf.bprintf buf "%s:%d/%d/%d/%d/%d/%.3f/%.3f;" ten.Slo.name
          ten.Slo.arrivals ten.Slo.served ten.Slo.shed ten.Slo.io_submitted
          ten.Slo.io_served
          (Slo.percentile_ms ten 50.)
          (Slo.percentile_ms ten 99.))
      (Slo.tenants slo);
    digest_threads buf (Kernel.threads k)
  in
  let stats () =
    let served, shed =
      List.fold_left
        (fun (a, b) (ten : Slo.tenant) -> (a + ten.Slo.served, b + ten.Slo.shed))
        (0, 0) (Slo.tenants slo)
    in
    let n = float_of_int (served + shed) in
    [
      ("service.served_frac", ratio (float_of_int served) n);
      ("service.shed_frac", ratio (float_of_int shed) n);
      ("service.victim_p99_ms", Slo.percentile_ms (Slo.tenant slo "A") 99.);
      ("service.chi_square_p", Option.value ~default:0. (fairness ()));
    ]
  in
  (* The service-insulation gate is p >= 0.01. Under a fair allocation p is
     uniform, so on arbitrary seeds that gate fails one run in a hundred by
     chance; there the gate is p >= 1e-6, which a broken allocation still
     fails (it drives p to ~0 at this sample size). *)
  let gate =
    if seed = service_default_seed || seed = held_out_seed then 0.01 else 1e-6
  in
  let chi () =
    match fairness () with
    | Some p when p >= gate -> []
    | Some p -> [ Printf.sprintf "chi-square p = %.3g < %g" p gate ]
    | None -> [ "chi-square p undefined" ]
  in
  ( {
      k;
      ls;
      slices;
      units = resolved;
      tick = ignore;
      checks = (fun () -> audit k ls @ checks () @ chi ());
      digest;
      stats;
    },
    slo )

(* The composed world must be the program [Service.Harness.run] runs:
   same slices and the same per-tenant arrivals / served / shed. *)
let service_equivalence ~seed ~horizon =
  let w, slo = compose_service ~traced:false ~seed in
  let summary = Kernel.run w.k ~until:horizon in
  let cfg = Svc.config ~seed ~horizon ~io_slot:service_io_slot service_tenants in
  let report = Svc.run cfg in
  let mine =
    List.map
      (fun (ten : Slo.tenant) ->
        (ten.Slo.name, ten.Slo.arrivals, ten.Slo.served, ten.Slo.shed))
      (Slo.tenants slo)
  in
  let theirs =
    List.map
      (fun (tr : Svc.tenant_report) ->
        (tr.Svc.t_name, tr.Svc.arrivals, tr.Svc.served, tr.Svc.shed))
      report.Svc.tenants
  in
  let show (n, a, s, d) = Printf.sprintf "%s %d/%d/%d" n a s d in
  if summary.Types.slices = report.Svc.slices && mine = theirs then []
  else
    [
      Printf.sprintf
        "composed service world diverges from Service.run at seed %d: slices \
         %d vs %d; %s vs %s"
        seed summary.Types.slices report.Svc.slices
        (String.concat ", " (List.map show mine))
        (String.concat ", " (List.map show theirs));
    ]

let workloads =
  [
    {
      name = "sched-scale";
      default_seed = 1;
      warm = Time.seconds 1000;
      chunk = Time.seconds 1200;
      (* DRAM-latency-bound: it slows about 0.5-0.7 times as much as the
         reference kernels when the host is contended (log-log slope of
         chunk rate on host speed over 20 runs) *)
      sensitivity = 0.6;
      build = build_sched_scale;
    };
    {
      name = "service-overload";
      default_seed = service_default_seed;
      warm = Time.seconds 150;
      chunk = Time.seconds 90;
      sensitivity = 1.;
      build = (fun ~traced ~seed -> fst (compose_service ~traced ~seed));
    };
    {
      name = "funding-churn";
      default_seed = 7;
      warm = Time.seconds 20;
      chunk = Time.seconds 10;
      sensitivity = 1.;
      build = build_funding_churn;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Timed windows                                                       *)
(* ------------------------------------------------------------------ *)

exception Window_reached

(* One set of readings. At each chunk boundary one is taken where a chunk
   ends and another where the next one starts; the host-speed reference
   runs between the two. *)
type reading = {
  cpu : float;
  mono : int;
  wall : float;
  units : int;
  slices : int;
  minor : float;
  promoted : float;
  majors : int;
}

type window = {
  ends : reading array;  (** [ends.(i)]: chunk [i - 1] ends *)
  starts : reading array;  (** [starts.(i)]: chunk [i] starts *)
  speed : float array;  (** host speed measured at boundary [i] *)
  mutable idle_frac : float;
}

(* Host-speed reference. The host's speed drifts by up to a quarter over
   seconds: other tenants share its cores, caches and memory, and CPU time
   alone carries that drift into every figure. Four fixed kernels of the
   benchmark's own are timed next to every timed phase -- random updates
   over 64 MiB (DRAM and TLB), 8 MiB (L3) and 1 MiB (L2) of a table kept
   outside the OCaml heap, and an allocation-heavy loop (minor heap and a
   small hash table) -- and each phase is rescaled by the host's speed: the
   geometric mean over the kernels of measured over nominal passes per
   CPU-second. The nominal speeds are what the kernels show on the 2-vCPU
   Xeon host the bounds were set on, when it is uncontended. Library
   changes cannot move the reference. *)
let ref_words = 1 lsl 23

let ref_table =
  let t = Bigarray.(Array1.create int c_layout ref_words) in
  Bigarray.Array1.fill t 0;
  t

let random_updates ~words ~n () =
  let x = ref 1 in
  for i = 0 to n - 1 do
    x := ((!x * 1103515245) + 12345) land (words - 1);
    Bigarray.Array1.unsafe_set ref_table !x
      (Bigarray.Array1.unsafe_get ref_table !x + i)
  done

let alloc_sink = ref []

let allocate () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 100_000 do
    Hashtbl.replace h (i land 4095) (i, float_of_int i);
    if i land 63 = 0 then alloc_sink := [ i ];
    ignore (Sys.opaque_identity (List.init 4 (fun j -> j + i)))
  done

(* (kernel, nominal passes per CPU-second) *)
let ref_kernels =
  [|
    (random_updates ~words:ref_words ~n:1_000_000, 95.);
    (random_updates ~words:(1 lsl 20) ~n:2_000_000, 140.);
    (random_updates ~words:(1 lsl 17) ~n:4_000_000, 130.);
    (allocate, 120.);
  |]

(* Each kernel runs once untimed, to refill the caches the code before it
   evicted, then once timed. *)
let host_speed () =
  let log_sum = ref 0. in
  Array.iter
    (fun (kernel, nominal) ->
      kernel ();
      let c0 = cpu_s () in
      kernel ();
      let dt = Float.max 1e-6 (cpu_s () -. c0) in
      log_sum := !log_sum +. log (1. /. dt /. nominal))
    ref_kernels;
  exp (!log_sum /. float_of_int (Array.length ref_kernels))

let read (w : world) =
  let st = Gc.quick_stat () in
  {
    minor = st.Gc.minor_words;
    promoted = st.Gc.promoted_words;
    majors = st.Gc.major_collections;
    units = w.units ();
    slices = !(w.slices);
    wall = Unix.gettimeofday ();
    mono = now_ns ();
    cpu = cpu_s ();
  }

(* Run [w] through warm-up and [chunks] timed chunks in one [Kernel.run],
   taking readings from the pre-select hook as virtual time crosses each
   boundary, so the timing leaves the simulated schedule untouched. With
   [abort] the run stops at the window start (a set-up-only repetition). *)
let run_window wl (w : world) ~chunks ~abort ~on_start =
  let n = chunks in
  let none = read w in
  let win =
    {
      ends = Array.make (n + 1) none;
      starts = Array.make (n + 1) none;
      speed = Array.make (n + 1) 0.;
      idle_frac = 0.;
    }
  in
  let idx = ref 0 in
  let next = ref wl.warm in
  let mark () =
    let i = !idx in
    win.ends.(i) <- read w;
    win.speed.(i) <- host_speed ();
    win.starts.(i) <- read w;
    idx := i + 1;
    next := wl.warm + ((i + 1) * wl.chunk);
    if i = 0 then if abort then raise Window_reached else on_start ()
  in
  Kernel.set_pre_select w.k
    (Some
       (fun () ->
         while !idx < n && Kernel.now w.k >= !next do
           mark ()
         done;
         w.tick ()));
  let horizon = wl.warm + (n * wl.chunk) in
  (try
     let s = Kernel.run w.k ~until:horizon in
     while !idx <= n do
       mark ()
     done;
     win.idle_frac <-
       ratio (float_of_int s.Types.idle_ticks)
         (float_of_int (Kernel.cpus w.k * s.Types.ended_at))
   with Window_reached -> ());
  Kernel.set_pre_select w.k None;
  win

(* [f] summed over the chunks, each from its start to its end reading. *)
let sum_chunks (win : window) n f =
  let t = ref 0. in
  for i = 0 to n - 1 do
    t := !t +. f win.starts.(i) win.ends.(i + 1)
  done;
  !t

(* Units per CPU-second in each chunk; unless [raw], rescaled by the mean
   host speed at the chunk's two ends raised to the workload's
   sensitivity. *)
let chunk_rates ?(raw = false) wl (win : window) n =
  Array.init n (fun i ->
      let a = win.starts.(i) and b = win.ends.(i + 1) in
      let rate = ratio (float_of_int (b.units - a.units)) (b.cpu -. a.cpu) in
      if raw then rate
      else
        rate
        /. Float.pow ((win.speed.(i) +. win.speed.(i + 1)) /. 2.) wl.sensitivity)

let window_units win n =
  int_of_float (sum_chunks win n (fun a b -> float_of_int (b.units - a.units)))

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  violations : string list;
  digest : string;
  units : int;
  samples : (string * float array) list;
  metrics : (string * float) list;
}

type setup = {
  scaled : float;  (** CPU seconds at the nominal host speed *)
  raw_cpu : float;
  wall : float;
}

(* Build, warm up and run one world; returns its set-up time, the world
   and its window. *)
let one_world wl ~traced ~seed ~chunks ~abort ~on_start =
  Gc.full_major ();
  let speed0 = host_speed () in
  let c0 = cpu_s () and t0 = Unix.gettimeofday () in
  let w = wl.build ~traced ~seed in
  let on_start () = on_start w in
  let win = run_window wl w ~chunks ~abort ~on_start in
  let e = win.ends.(0) in
  let raw_cpu = e.cpu -. c0 in
  ( {
      scaled =
        raw_cpu *. Float.pow ((speed0 +. win.speed.(0)) /. 2.) wl.sensitivity;
      raw_cpu;
      wall = e.wall -. t0;
    },
    w,
    win )

let finish_world ~fault (w : world) =
  let violations = w.checks () in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "slices=%d;" !(w.slices);
  w.digest buf;
  if fault = Some "digest" then Buffer.add_string buf "perturbed";
  let violations =
    if fault = Some "audit" then violations @ [ "injected audit failure" ]
    else violations
  in
  (violations, Digest.to_hex (Digest.string (Buffer.contents buf)))

(* A plain run: one world, set up and then timed with tracing off. With
   [setup_only] the run stops at the window start; run.py launches several
   such processes and reports the median set-up time. *)
let plain_run wl ~seed ~chunks ~setup_only ~fault =
  let setup, w, win =
    one_world wl ~traced:false ~seed ~chunks ~abort:setup_only ~on_start:ignore
  in
  let timings =
    [
      ("setup_s", setup.scaled);
      ("setup_cpu_s", setup.raw_cpu);
      ("setup_wall_s", setup.wall);
    ]
  in
  if setup_only then
    { violations = []; digest = ""; units = 0; samples = []; metrics = timings }
  else
    let violations, digest = finish_world ~fault w in
    let rates = chunk_rates wl win chunks in
    let units = window_units win chunks in
    let words = sum_chunks win chunks (fun a b -> b.minor -. a.minor) in
    let cpu = sum_chunks win chunks (fun a b -> b.cpu -. a.cpu) in
    let wall = sum_chunks win chunks (fun a b -> b.wall -. a.wall) in
    {
      violations;
      digest;
      units;
      samples =
        [
          ("chunk_ops_per_s", rates);
          ("chunk_cpu_ops_per_s", chunk_rates ~raw:true wl win chunks);
          ("host_speed", win.speed);
        ];
      metrics =
        timings
        @ [
            ("ops_per_s", median rates);
            ("words_per_op", ratio words (float_of_int units));
            ("cpu_ops_per_s", ratio (float_of_int units) cpu);
            ("window_cpu_s", cpu);
            ("window_wall_s", wall);
          ];
    }

type counters = {
  draws : int;
  scoped : int;
  refreshes : int;
  migrations : int;
  steals : int;
}

let counters ls =
  {
    draws = Ls.draws ls;
    scoped = Ls.scoped_weight_updates ls;
    refreshes = Ls.full_refreshes ls;
    migrations = Ls.migrations ls;
    steals = Ls.steals ls;
  }

let traced_run wl ~seed ~chunks ~fault =
  (* untraced reference window: throughput for the overhead ratio, GC *)
  let _, wa, wina =
    one_world wl ~traced:false ~seed ~chunks ~abort:false ~on_start:ignore
  in
  let va, da = finish_world ~fault wa in
  let rate_a = median (chunk_rates wl wina chunks) in
  let units_a = float_of_int (window_units wina chunks) in
  let promoted = sum_chunks wina chunks (fun a b -> b.promoted -. a.promoted) in
  let majors =
    sum_chunks wina chunks (fun a b -> float_of_int (b.majors - a.majors))
  in
  (* traced window: same seed, so the same simulated work *)
  let prof = Profile.create ~clock:Trace.prof_clock () in
  let c0 = ref None in
  let on_start w =
    Trace.reset ();
    c0 := Some (counters w.ls);
    Kernel.set_profiler w.k (Some prof);
    Ls.set_profiler w.ls (Some prof)
  in
  let _, wb, winb =
    one_world wl ~traced:true ~seed ~chunks ~abort:false ~on_start
  in
  Kernel.set_profiler wb.k None;
  Ls.set_profiler wb.ls None;
  let vb, db = finish_world ~fault wb in
  let violations =
    va @ vb
    @ if da = db then [] else [ "traced run diverged from the untraced run" ]
  in
  let c0 = Option.get !c0 and c1 = counters wb.ls in
  let rate_b = median (chunk_rates wl winb chunks) in
  let w_ns = sum_chunks winb chunks (fun a b -> float_of_int (b.mono - a.mono)) in
  let units = float_of_int (window_units winb chunks) in
  let slices =
    sum_chunks winb chunks (fun a b -> float_of_int (b.slices - a.slices))
  in
  let f = float_of_int in
  let hsum ph = f (Hdr.sum (Profile.hdr prof ph)) in
  let hcount ph = f (Hdr.count (Profile.hdr prof ph)) in
  let valuation = hsum Profile.Valuation and draw = hsum Profile.Draw in
  let dispatch = f !Trace.d_total in
  let p_in = f !Trace.p_in and p_out = f !Trace.p_out in
  let tot c = f Trace.total.(c) and calls c = f Trace.calls.(c) in
  let sched_cats =
    Trace.[ c_select; c_account; c_ready; c_unready; c_transfer; c_lifecycle; c_pick ]
  in
  let sum l g = List.fold_left (fun acc c -> acc +. g c) 0. l in
  let all_cats = List.init Trace.ncat Fun.id in
  let in_disp = sum all_cats (fun c -> f Trace.in_dispatch.(c)) in
  let out_top =
    sum all_cats (fun c ->
        if c = Trace.c_select then 0.
        else f (Trace.top.(c) - Trace.in_dispatch.(c)))
  in
  let dispatch_self = dispatch -. in_disp -. p_in in
  let round_self = w_ns -. tot Trace.c_select -. dispatch -. out_top -. p_out in
  let layers =
    [
      ("lottery", draw);
      ("tickets", valuation +. f Trace.self.(Trace.c_mutate));
      ("sched", sum sched_cats tot -. valuation -. draw);
      ( "sim",
        dispatch_self +. round_self +. f Trace.self.(Trace.c_spawn_kill) );
      ("obs", p_in +. p_out);
      ("resmgr", tot Trace.c_io_serve +. tot Trace.c_io_submit);
    ]
  in
  let self_sum =
    List.fold_left (fun acc (_, v) -> acc +. Float.max 0. v) 0. layers
  in
  let per_call c = ratio (tot c) (calls c) in
  let sched_rows =
    List.concat_map
      (fun (name, c) ->
        [
          (Printf.sprintf "sched.%s_ns" name, per_call c);
          (Printf.sprintf "sched.%s_calls_per_unit" name, ratio (calls c) units);
          ( Printf.sprintf "sched.%s_words_per_call" name,
            ratio Trace.words.(c) (calls c) );
        ])
      Trace.
        [
          ("select", c_select);
          ("account", c_account);
          ("ready", c_ready);
          ("unready", c_unready);
          ("transfer", c_transfer);
          ("lifecycle", c_lifecycle);
        ]
  in
  let metrics =
    sched_rows
    @ [
        ("sched.select_p99_ns", Hdr.percentile Trace.select_hdr 99.);
        ( "sched.migrations_per_kslice",
          1000. *. ratio (f (c1.migrations - c0.migrations)) slices );
        ( "sched.steals_per_kslice",
          1000. *. ratio (f (c1.steals - c0.steals)) slices );
        ("lottery.draw_ns", ratio draw (hcount Profile.Draw));
        ("lottery.draw_share", ratio draw w_ns);
        ("lottery.draws_per_slice", ratio (f (c1.draws - c0.draws)) slices);
        ("tickets.valuation_ns", ratio valuation (hcount Profile.Valuation));
        ("tickets.valuation_share", ratio valuation w_ns);
        ( "tickets.scoped_updates_per_slice",
          ratio (f (c1.scoped - c0.scoped)) slices );
        ("tickets.full_refreshes", f (c1.refreshes - c0.refreshes));
        ("tickets.mutate_ns", per_call Trace.c_mutate);
        ("sim.dispatch_self_ns", ratio dispatch_self (f !Trace.d_count));
        ("sim.round_self_share", ratio round_self w_ns);
        ("sim.idle_frac", winb.idle_frac);
        ("sim.spawn_kill_ns", per_call Trace.c_spawn_kill);
        ("obs.publish_ns", ratio (p_in +. p_out) (f !Trace.p_count));
        ("obs.events_per_request", ratio (f !Trace.p_count) units);
        ("obs.publish_share", ratio (p_in +. p_out) w_ns);
        ("resmgr.io_serve_ns", per_call Trace.c_io_serve);
        ( "resmgr.io_words_per_call",
          ratio Trace.words.(Trace.c_io_serve) (calls Trace.c_io_serve) );
        ("gc.promoted_words_per_unit", ratio promoted units_a);
        ("gc.major_collections", majors);
      ]
    @ (let stats = wb.stats () in
       List.map
         (fun k -> (k, Option.value ~default:0. (List.assoc_opt k stats)))
         [
           "service.served_frac";
           "service.shed_frac";
           "service.victim_p99_ms";
           "service.chi_square_p";
         ])
    @ List.map (fun (l, v) -> ("self." ^ l ^ "_share", ratio v w_ns)) layers
    @ [
        ("trace.self_sum_share", ratio self_sum w_ns);
        ("trace.overhead", ratio rate_a rate_b);
        ("trace.window_s", w_ns /. 1e9);
      ]
  in
  {
    violations;
    digest = db;
    units = int_of_float units;
    samples = [ ("chunk_ops_per_s", chunk_rates wl winb chunks) ];
    metrics;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let json_list f l = "[" ^ String.concat "," (List.map f l) ^ "]"

let print_outcome wl ~seed ~seconds ~traced o =
  print_endline
    (json_obj
       [
         ("workload", json_string wl.name);
         ("seed", string_of_int seed);
         ("default_seed", string_of_int wl.default_seed);
         ("seconds", string_of_int seconds);
         ("trace", if traced then "1" else "0");
         ("units", string_of_int o.units);
         ("violations", json_list json_string o.violations);
         ("digest", json_string o.digest);
         ( "samples",
           json_obj
             (List.map
                (fun (k, a) -> (k, json_list json_float (Array.to_list a)))
                o.samples) );
         ("metrics", json_obj (List.map (fun (k, v) -> (k, json_float v)) o.metrics));
       ])

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--setup-only] [--inject-fault digest|audit]\n\
    \       perfbench --selftest";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 in
  let trace = ref 0 and setup_only = ref false and fault = ref None in
  let selftest = ref false in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := Some (int_of_string v); parse r
    | "--seconds" :: v :: r -> seconds := int_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--setup-only" :: r -> setup_only := true; parse r
    | "--inject-fault" :: v :: r -> fault := Some v; parse r
    | "--selftest" :: r -> selftest := true; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !selftest then begin
    let v =
      service_equivalence ~seed:94 ~horizon:(Time.seconds 60)
      @ service_equivalence ~seed:4242 ~horizon:(Time.seconds 30)
    in
    print_endline (json_obj [ ("violations", json_list json_string v) ]);
    exit (if v = [] then 0 else 1)
  end;
  let wl =
    match List.find_opt (fun wl -> wl.name = !workload) workloads with
    | Some wl -> wl
    | None -> usage ()
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let seed = Option.value ~default:wl.default_seed !seed in
  let chunks = 2 * !seconds in
  let traced = !trace = 1 in
  let o =
    if traced then traced_run wl ~seed ~chunks ~fault:!fault
    else plain_run wl ~seed ~chunks ~setup_only:!setup_only ~fault:!fault
  in
  let o =
    if wl.name = "service-overload" && not !setup_only then
      {
        o with
        violations =
          o.violations @ service_equivalence ~seed ~horizon:(Time.seconds 20);
      }
    else o
  in
  print_outcome wl ~seed ~seconds:!seconds ~traced o
