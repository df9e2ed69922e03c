open Lotto_sim
module LS = Lotto_sched.Lottery_sched
module Rng = Lotto_prng.Rng

type outcome = {
  scenario : string;
  seed : int;
  violations : (Time.t * string) list;
  thread_failures : (string * string) list;
  faults : (Time.t * string) list;
  summary : Types.run_summary;
  span_stats : Lotto_obs.Span.stats;
}

let failed o = o.violations <> [] || o.thread_failures <> []

let run_one ?(plan = Plan.default) ?(audit = true) ?(cpus = 1)
    (sc : Scenarios.t) ~seed =
  if cpus < 1 then invalid_arg "Soak.run_one: cpus < 1";
  let rng = Rng.create ~seed () in
  (* the injector gets its own stream derived from the run seed, so fault
     decisions and lottery draws never perturb each other's sequences *)
  let inj_rng = Rng.split rng in
  (* one lottery shard per CPU: cpus > 1 exercises placement, rebalancing
     and stealing under fault injection *)
  let ls = LS.create ~shards:cpus ~rng () in
  let kernel = Kernel.create ~cpus ~sched:(LS.sched ls) () in
  let inj = Injector.create ~plan ~rng:inj_rng ~kernel () in
  (* the span tracer is a pure bus subscriber: it consumes no randomness and
     never touches kernel state, so attaching it preserves run-for-run
     determinism while letting the soak assert that no RPC span is ever
     leaked — kills must produce Orphaned/Dropped spans, not silence *)
  let span = Lotto_obs.Span.create () in
  Lotto_obs.Span.attach span (Kernel.bus kernel);
  let checks = ref [] in
  sc.Scenarios.build
    { Scenarios.kernel; ls; rng; point = (fun () -> Injector.point inj);
      audit = (fun c -> checks := c :: !checks) };
  let violations = ref [] in
  let audit_now () =
    (* first finding wins: one corrupted slice cascades, so later batches
       add noise, not information *)
    if audit && !violations = [] then
      match Audit.check ~sched:ls kernel @ List.concat_map (fun c -> c ()) !checks with
      | [] -> ()
      | vs -> violations := List.map (fun v -> (Kernel.now kernel, v)) vs
  in
  Kernel.set_pre_select kernel
    (Some
       (fun () ->
         Injector.step inj;
         audit_now ()));
  let summary =
    match Kernel.run kernel ~until:sc.Scenarios.horizon with
    | summary ->
        audit_now ();
        summary
    | exception e ->
        (* a kernel or scheduler bug fails this run, with its repro pair,
           instead of ending the sweep; the broken state goes unaudited *)
        let now = Kernel.now kernel in
        violations := !violations @ [ (now, "kernel raised " ^ Printexc.to_string e) ];
        { Types.ended_at = now; idle_ticks = 0; deadlocked = false; slices = 0 }
  in
  Lotto_obs.Span.finalize span ~now:(Kernel.now kernel);
  let span_violations =
    List.map
      (fun v -> (Kernel.now kernel, "span: " ^ v))
      (Lotto_obs.Span.violations span)
  in
  (* a killed thread is the expected consequence of a kill fault; the
     kernel only counts those, so every listed failure is a real one *)
  let thread_failures =
    List.map
      (fun (th, e) -> (Kernel.thread_name th, Printexc.to_string e))
      (Kernel.failures kernel)
  in
  {
    scenario = sc.Scenarios.name;
    seed;
    violations = !violations @ span_violations;
    thread_failures;
    faults = Injector.faults inj;
    summary;
    span_stats = Lotto_obs.Span.stats span;
  }

type report = { runs : int; failures : outcome list }

let first_failure r =
  match r.failures with [] -> None | o :: _ -> Some (o.scenario, o.seed)

let seed_range ~from ~count = List.init count (fun i -> from + i)

let soak ?plan ?audit ?cpus ?(scenarios = Scenarios.all) ~seeds () =
  let run sc seed = run_one ?plan ?audit ?cpus sc ~seed in
  let failures =
    List.concat_map (fun sc -> List.filter failed (List.map (run sc) seeds)) scenarios
  in
  { runs = List.length scenarios * List.length seeds; failures }

let pp_outcome buf o =
  Buffer.add_string buf
    (Printf.sprintf "FAIL scenario=%s seed=%d  (repro: chaos replay %s %d)\n"
       o.scenario o.seed o.scenario o.seed);
  List.iter
    (fun (t, v) -> Buffer.add_string buf (Printf.sprintf "  [%d] violation: %s\n" t v))
    o.violations;
  List.iter
    (fun (name, e) ->
      Buffer.add_string buf (Printf.sprintf "  thread %s failed: %s\n" name e))
    o.thread_failures;
  List.iter
    (fun (t, f) -> Buffer.add_string buf (Printf.sprintf "  [%d] fault: %s\n" t f))
    o.faults

let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "soak: %d runs, %d failed\n" r.runs (List.length r.failures));
  (match first_failure r with
  | None -> ()
  | Some (sc, seed) ->
      Buffer.add_string buf
        (Printf.sprintf "first failing pair: (%s, %d)\n" sc seed));
  List.iter (fun o -> pp_outcome buf o) r.failures;
  Buffer.contents buf
