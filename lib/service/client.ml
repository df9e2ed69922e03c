open Lotto_sim

type state = {
  ten : Slo.tenant;
  backlog : int Queue.t;  (** intended arrival times, µs, FIFO *)
  mutable holding : int;  (** requests popped by a stub, outcome unrecorded *)
}

type t = {
  st : state;
  stubs : Types.thread list;
  generator : Types.thread;
}

(* One persistent stub per concurrent outstanding request. Stubs never
   compute, so their slices are ~zero-length: each earns a standing
   compensation factor (paper §3.4) and is dispatched promptly even when
   the machine is saturated with backlogged workers — exactly the paper's
   interactive-thread mechanism. Spawning a fresh thread per request
   instead would wait out a full lottery backlog before its first select,
   adding seconds of spurious "latency" that no real kernel charges. *)
let spawn k ~(spec : Tenant.spec) ~rng ~slo ~port =
  let ten = Slo.tenant slo spec.name in
  let arr = Arrivals.create ~rng spec.arrivals in
  let st = { ten; backlog = Queue.create (); holding = 0 } in
  let sem = Kernel.create_semaphore k ~initial:0 (spec.name ^ ".backlog") in
  let stub () =
    (* Prime at t=0: every thread alive before the first compute drains
       its zero-length first slice immediately, establishing the
       compensation history the dispatch-latency argument above needs. *)
    Api.yield ();
    while true do
      Api.sem_wait sem;
      let t0 = Queue.pop st.backlog in
      st.holding <- st.holding + 1;
      (match Api.rpc port "req" with
      | (_ : string) -> Slo.record_served ten ~latency_us:(Api.now () - t0)
      | exception Types.Rejected _ -> Slo.record_shed ten);
      st.holding <- st.holding - 1
    done
  in
  let generator () =
    Api.yield ();
    (* Absolute-time open-loop schedule: arrival k fires at the sum of the
       first k gaps regardless of how late the generator itself was
       dispatched, so the offered rate survives scheduling delay. The
       else-branch catches up without sleeping when we wake past several
       arrival times. *)
    let next = ref (Arrivals.next_gap_us arr) in
    while true do
      let now = Api.now () in
      if !next > now then Api.sleep (!next - now)
      else begin
        Slo.record_arrival ten;
        Queue.push !next st.backlog;
        Api.sem_post sem;
        next := !next + Arrivals.next_gap_us arr
      end
    done
  in
  let stubs =
    List.init spec.stubs (fun i ->
        Kernel.spawn k ~name:(Printf.sprintf "%s.c%d" spec.name i) stub)
  in
  let generator = Kernel.spawn k ~name:(spec.name ^ ".gen") generator in
  { st; stubs; generator }

let tenant c = c.st.ten
let holding c = c.st.holding
let stubs c = c.stubs
let generator c = c.generator

(* Conservation law at any quiescent point: every generated arrival is
   served, shed, still queued client-side, or held by a stub mid-RPC. *)
let accounted c =
  c.st.ten.Slo.arrivals
  = c.st.ten.Slo.served + c.st.ten.Slo.shed
    + Queue.length c.st.backlog + c.st.holding
