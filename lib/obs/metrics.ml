module Chi = Lotto_stats.Chi_square

(* latency histograms: µs of virtual time, 2^-5 relative error, values up
   to 2^30 µs (~18 virtual minutes) before clamping *)
let make_hdr () = Hdr.create ~sub_bits:5 ~max_value:(1 lsl 30) ()

type row = {
  tid : int;
  name : string;
  seq : int;  (** first-seen order *)
  mutable dead : bool;  (** its thread's [Exit] was seen *)
  mutable wins : int;
  mutable quanta : int;
  mutable compensations : int;
  mutable blocks : int;
  mutable donations : int;
  mutable lock_acquires : int;
  mutable lock_contended : int;
  mutable rpcs : int;
  mutable rpcs_served : int;
  mutable rpcs_shed : int;
  wait_h : Hdr.t;
  dispatch_h : Hdr.t;
  mutable blocked_since : int;  (** [-1]: not blocked *)
  mutable runnable_since : int;  (** [-1]: not waiting for the CPU *)
  mutable q_cur : int;
      (** the quantum of the thread's latest [Preempt] with a positive
          quantum, [0] before the first *)
  mutable q_cur_used : int;
      (** CPU ticks received under [q_cur] since it came into force, not
          yet in [q_done] *)
  mutable q_done : (int * int) list;
      (** CPU ticks received under earlier quanta, one entry per quantum.
          The chi-square bins each thread's time into slices of the
          quantum it actually ran under, so runs that change quantum
          mid-stream don't under-count early threads; a read folds
          [q_cur_used] in (see {!q_totals}) *)
}

let fresh_row ~tid ~name ~seq ~hdr =
  {
    tid;
    name;
    seq;
    dead = false;
    wins = 0;
    quanta = 0;
    compensations = 0;
    blocks = 0;
    donations = 0;
    lock_acquires = 0;
    lock_contended = 0;
    rpcs = 0;
    rpcs_served = 0;
    rpcs_shed = 0;
    wait_h = hdr ();
    dispatch_h = hdr ();
    blocked_since = -1;
    runnable_since = -1;
    q_cur = 0;
    q_cur_used = 0;
    q_done = [];
  }

(* Rows are found through a direct-mapped cache on the tid's low bits
   before the table: one load and one int compare, no [caml_hash]. A slot
   that still holds [no_row] never matches, whatever the tid. *)
let cache_size = 256

let no_row =
  fresh_row ~tid:min_int ~name:"" ~seq:(-1) ~hdr:(fun () ->
      Hdr.create ~sub_bits:1 ~max_value:2 ())

(* Dead rows kept after their [Exit]: more exited threads than any
   shipped scenario, experiment or service run has, so their output is
   the same as with every row kept; at most ~14.6 MB of dead rows. *)
let retain = 1024

type t = {
  rows : (int, row) Hashtbl.t;  (** live rows and retained dead rows *)
  cache : row array;  (** [cache_size] slots, by [tid land (cache_size - 1)] *)
  dead_rows : row Queue.t;  (** retained dead rows, oldest death first *)
  mutable seen : int;  (** rows ever made: the next row's [seq] *)
  mutable evicted : int;
  mutable evicted_max_tid : int;  (** [-1] until a row is evicted *)
  mutable evicted_quanta : int;  (** the evicted rows' [quanta] *)
  mutable quantum_us : int;  (** largest quantum seen in Preempt events *)
  mutable sub : Bus.subscription option;
}

let create () =
  {
    rows = Hashtbl.create 32;
    cache = Array.make cache_size no_row;
    dead_rows = Queue.create ();
    seen = 0;
    evicted = 0;
    evicted_max_tid = -1;
    evicted_quanta = 0;
    quantum_us = 0;
    sub = None;
  }

let new_row t (a : Event.actor) =
  let r =
    fresh_row ~tid:a.Event.tid ~name:a.Event.tname ~seq:t.seen ~hdr:make_hdr
  in
  t.seen <- t.seen + 1;
  Hashtbl.replace t.rows a.Event.tid r;
  r

(* A miss for an event that can name a thread after its [Exit] (its last
   [Preempt], a drop-oldest [Rpc_shed]) makes no row for a tid that may
   have been evicted: such a row would never see an [Exit] again, so it
   would never leave. [no_row] is returned instead, and never written. *)
let row_slow t (a : Event.actor) ~post_mortem =
  let tid = a.Event.tid in
  let r =
    match Hashtbl.find t.rows tid with
    | r -> r
    | exception Not_found ->
        if post_mortem && tid <= t.evicted_max_tid then no_row else new_row t a
  in
  if r != no_row then Array.unsafe_set t.cache (tid land (cache_size - 1)) r;
  r

(* [-1] sentinels rather than [int option] timestamps, and the cache in
   front of the table: the per-event path allocates nothing, hashes
   nothing and calls no C once a thread's row exists. *)
let[@inline] find t (a : Event.actor) ~post_mortem =
  let tid = a.Event.tid in
  let r = Array.unsafe_get t.cache (tid land (cache_size - 1)) in
  if r.tid = tid && r != no_row then r else row_slow t a ~post_mortem

let[@inline] row t a = find t a ~post_mortem:false

(* An exited thread's row joins the retained dead rows; beyond [retain]
   the oldest death is evicted: out of the table and the cache, its
   quanta kept in the total. *)
let retire t r =
  r.dead <- true;
  Queue.push r t.dead_rows;
  if Queue.length t.dead_rows > retain then begin
    let old = Queue.pop t.dead_rows in
    Hashtbl.remove t.rows old.tid;
    let slot = old.tid land (cache_size - 1) in
    if Array.unsafe_get t.cache slot == old then Array.unsafe_set t.cache slot no_row;
    t.evicted <- t.evicted + 1;
    if old.tid > t.evicted_max_tid then t.evicted_max_tid <- old.tid;
    t.evicted_quanta <- t.evicted_quanta + old.quanta
  end

(* [(q, used)] list [l] with [used] added to quantum [q]'s entry *)
let rec add_q l (q : int) used =
  match l with
  | [] -> [ (q, used) ]
  | (q', u) :: rest when q' = q -> (q, u + used) :: rest
  | x :: rest -> x :: add_q rest q used

(* ticks per quantum, the running sum folded in *)
let q_totals (r : row) =
  if r.q_cur > 0 then add_q r.q_done r.q_cur r.q_cur_used else r.q_done

let on_event t time ev =
  match ev with
  | Event.Spawn { who } -> (row t who).runnable_since <- time
  | Event.Select { who; _ } ->
      let r = row t who in
      r.wins <- r.wins + 1;
      if r.runnable_since >= 0 then
        Hdr.record r.dispatch_h (time - r.runnable_since);
      r.runnable_since <- -1
  | Event.Preempt { who; used; quantum; why } ->
      if quantum > t.quantum_us then t.quantum_us <- quantum;
      let r = find t who ~post_mortem:(why == Event.End_exit) in
      if r != no_row then begin
        r.quanta <- r.quanta + used;
        if quantum > 0 then begin
          if quantum <> r.q_cur then begin
            if r.q_cur > 0 then r.q_done <- add_q r.q_done r.q_cur r.q_cur_used;
            r.q_cur <- quantum;
            r.q_cur_used <- 0
          end;
          r.q_cur_used <- r.q_cur_used + used
        end;
        match why with
        | Event.End_quantum | Event.End_yield | Event.End_horizon ->
            r.runnable_since <- time
        | Event.End_block | Event.End_exit -> ()
      end
  | Event.Block { who; _ } ->
      let r = row t who in
      r.blocks <- r.blocks + 1;
      r.blocked_since <- time
  | Event.Wake { who } ->
      let r = row t who in
      if r.blocked_since >= 0 then
        Hdr.record r.wait_h (time - r.blocked_since);
      r.blocked_since <- -1;
      r.runnable_since <- time
  | Event.Exit { who; _ } ->
      let r = row t who in
      r.runnable_since <- -1;
      if not r.dead then retire t r
  | Event.Compensate { who; _ } ->
      let r = row t who in
      r.compensations <- r.compensations + 1
  | Event.Donate { src; _ } ->
      let r = row t src in
      r.donations <- r.donations + 1
  | Event.Lock_acquire { who; contended; _ } ->
      let r = row t who in
      r.lock_acquires <- r.lock_acquires + 1;
      if contended then r.lock_contended <- r.lock_contended + 1
  | Event.Lock_release _ -> ()
  | Event.Rpc_send { who; _ } ->
      let r = row t who in
      r.rpcs <- r.rpcs + 1
  | Event.Rpc_recv { who; _ } ->
      let r = row t who in
      r.rpcs_served <- r.rpcs_served + 1
  | Event.Rpc_reply _ -> ()
  | Event.Rpc_shed { who; _ } ->
      let r = find t who ~post_mortem:true in
      if r != no_row then r.rpcs_shed <- r.rpcs_shed + 1
  | Event.Resource_draw _ -> ()
  | Event.Rpc_reply_dropped _ -> ()
  | Event.Fault_injected _ -> ()
  | Event.Invariant_violation _ -> ()

let attach t bus =
  if t.sub <> None then invalid_arg "Metrics.attach: already attached";
  t.sub <- Some (Bus.subscribe ~name:"metrics" bus (fun time ev -> on_event t time ev))

let detach t =
  match t.sub with
  | Some s ->
      Bus.unsubscribe s;
      t.sub <- None
  | None -> ()

type snapshot = {
  tid : int;
  name : string;
  wins : int;
  quanta : int;
  compensations : int;
  blocks : int;
  donations : int;
  lock_acquires : int;
  lock_contended : int;
  rpcs : int;
  rpcs_served : int;
  rpcs_shed : int;
  wait : Hdr.t;
  dispatch : Hdr.t;
}

(* live and retained rows, first-seen order *)
let held t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.rows []
  |> List.sort (fun (a : row) (b : row) -> compare a.seq b.seq)

let snapshots t =
  held t
  |> List.map (fun (r : row) ->
         {
           tid = r.tid;
           name = r.name;
           wins = r.wins;
           quanta = r.quanta;
           compensations = r.compensations;
           blocks = r.blocks;
           donations = r.donations;
           lock_acquires = r.lock_acquires;
           lock_contended = r.lock_contended;
           rpcs = r.rpcs;
           rpcs_served = r.rpcs_served;
           rpcs_shed = r.rpcs_shed;
           wait = Hdr.copy r.wait_h;
           dispatch = Hdr.copy r.dispatch_h;
         })

let total_quanta t =
  Hashtbl.fold (fun _ (r : row) acc -> acc + r.quanta) t.rows t.evicted_quanta

let evicted t = t.evicted

type share = {
  s_tid : int;
  s_name : string;
  s_quanta : int;
  observed : float;
  entitled : float;
}

let fairness t ~entitled =
  (* Dedupe by tid, first entry wins: a tid listed twice maps to the same
     row, so keeping both entries would sum that row's quanta twice into
     [total_q] and give the thread two cells in the chi-square. *)
  let seen = Hashtbl.create (List.length entitled) in
  let entitled =
    List.filter
      (fun (tid, _) ->
        if Hashtbl.mem seen tid then false
        else begin
          Hashtbl.add seen tid ();
          true
        end)
      entitled
  in
  let compared =
    List.filter_map
      (fun (tid, weight) ->
        match Hashtbl.find_opt t.rows tid with
        | Some r -> Some (r, weight)
        | None when tid <= t.evicted_max_tid ->
            invalid_arg
              (Printf.sprintf
                 "Metrics.fairness: tid %d has no row and may have been evicted \
                  (%d dead rows evicted beyond retain %d)"
                 tid t.evicted retain)
        | None -> None)
      entitled
  in
  let total_q =
    List.fold_left (fun acc ((r : row), _) -> acc + r.quanta) 0 compared
  in
  let total_w = List.fold_left (fun acc (_, w) -> acc +. w) 0. compared in
  let rows =
    List.map
      (fun ((r : row), w) ->
        {
          s_tid = r.tid;
          s_name = r.name;
          s_quanta = r.quanta;
          observed = float_of_int r.quanta /. float_of_int (max 1 total_q);
          entitled = (if total_w > 0. then w /. total_w else 0.);
        })
      compared
  in
  (* Goodness of fit over CPU time binned into quantum-sized units, not raw
     win counts: compensation tickets (paper §3.4) deliberately inflate an
     I/O-bound thread's win RATE in proportion to how little of each quantum
     it uses, so win counts are non-proportional by design while CPU time
     stays proportional to entitlement. *)
  let p_value =
    if t.quantum_us <= 0 || total_w <= 0. || List.length compared < 2
       || List.exists (fun (_, w) -> w <= 0.) compared
    then None
    else begin
      (* Quantum-weighted slice count: each chunk of CPU time is divided by
         the quantum it was granted under, so a run that changes quantum
         mid-stream (e.g. the quantum ablation) bins every thread's time at
         its own granularity instead of under-counting early threads by the
         largest quantum seen. For homogeneous-quantum runs this is exactly
         the historical [round (quanta / quantum_us)]. *)
      let slices (r : row) =
        List.fold_left
          (fun acc (q, used) ->
            acc + int_of_float (Float.round (float_of_int used /. float_of_int q)))
          0 (q_totals r)
      in
      let observed = Array.of_list (List.map (fun (r, _) -> slices r) compared) in
      let total = Array.fold_left ( + ) 0 observed in
      if total = 0 then None
      else begin
        let expected =
          Array.of_list
            (List.map (fun (_, w) -> w /. total_w *. float_of_int total) compared)
        in
        let stat = Chi.statistic ~observed ~expected in
        let df = Chi.degrees_of_freedom ~cells:(Array.length observed) in
        Some (Chi.p_value ~statistic:stat ~df)
      end
    end
  in
  (rows, p_value)

(* percentiles straight off the histogram: O(buckets), no sort, no copy of
   the sample stream (which is no longer retained by default anyway) *)
let pcts h =
  if Hdr.count h = 0 then "-"
  else
    Printf.sprintf "%.1f/%.1f/%.1f"
      (Hdr.percentile h 50. /. 1000.)
      (Hdr.percentile h 90. /. 1000.)
      (Hdr.percentile h 99. /. 1000.)

let summary ?entitled t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-14s %7s %10s %5s %6s %6s %20s %20s\n" "thread" "wins"
       "quanta(ms)" "comp" "blocks" "locks" "wait p50/90/99 (ms)"
       "disp p50/90/99 (ms)");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-14s %7d %10.1f %5d %6d %6d %20s %20s\n" s.name s.wins
           (float_of_int s.quanta /. 1000.)
           s.compensations s.blocks s.lock_acquires (pcts s.wait)
           (pcts s.dispatch)))
    (snapshots t);
  (match entitled with
  | None -> ()
  | Some entitled ->
      let rows, p = fairness t ~entitled in
      if rows <> [] then begin
        Buffer.add_string buf "\nobserved vs entitled CPU share:\n";
        Buffer.add_string buf
          (Printf.sprintf "  %-14s %12s %10s %10s %8s\n" "thread" "quanta(ms)"
             "observed" "entitled" "ratio");
        List.iter
          (fun s ->
            Buffer.add_string buf
              (Printf.sprintf "  %-14s %12.1f %9.1f%% %9.1f%% %8s\n" s.s_name
                 (float_of_int s.s_quanta /. 1000.)
                 (100. *. s.observed) (100. *. s.entitled)
                 (if s.entitled > 0. then
                    Printf.sprintf "%.3f" (s.observed /. s.entitled)
                  else "-")))
          rows;
        match p with
        | Some p ->
            Buffer.add_string buf
              (Printf.sprintf
                 "  chi-square over quantum-sized CPU slices: p = %.3f (%s \
                  ticket split)\n"
                 p
                 (if p >= 0.001 then "consistent with" else "INCONSISTENT with"))
        | None -> ()
      end);
  Buffer.contents buf

let profile p =
  "scheduler phase profile (host-clock ns):\n" ^ Profile.summary p

(* --- Prometheus text exposition ----------------------------------------- *)

let prom_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_family buf ~name ~help rows =
  let kind =
    match rows with
    | `Counter _ -> "counter"
    | `Gauge _ -> "gauge"
    | `Summary _ -> "summary"
  in
  Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" name help name kind;
  match rows with
  | `Counter rows | `Gauge rows ->
      List.iter
        (fun (labels, v) -> Printf.bprintf buf "%s{%s} %d\n" name labels v)
        rows
  | `Summary rows ->
      List.iter
        (fun (labels, h) ->
          if Hdr.count h > 0 then
            List.iter
              (fun q ->
                Printf.bprintf buf "%s{%s,quantile=\"%g\"} %g\n" name labels q
                  (Hdr.percentile h (q *. 100.)))
              [ 0.5; 0.9; 0.99; 0.999 ];
          Printf.bprintf buf "%s_sum{%s} %d\n" name labels (Hdr.sum h);
          Printf.bprintf buf "%s_count{%s} %d\n" name labels (Hdr.count h))
        rows

let to_prom ?(namespace = "lotto") t =
  let buf = Buffer.create 4096 in
  let snaps = snapshots t in
  let rows get =
    List.map
      (fun (s : snapshot) ->
        ( Printf.sprintf "thread=\"%s\",tid=\"%d\"" (prom_escape s.name) s.tid,
          get s ))
      snaps
  in
  let counter name help get =
    prom_family buf ~name:(namespace ^ "_" ^ name) ~help (`Counter (rows get))
  in
  counter "wins_total" "Lottery wins (selections)." (fun s -> s.wins);
  counter "quanta_us_total" "CPU time received, microseconds of virtual time."
    (fun s -> s.quanta);
  counter "compensations_total" "Compensation-ticket activations." (fun s ->
      s.compensations);
  counter "blocks_total" "Times blocked." (fun s -> s.blocks);
  counter "donations_total" "Ticket donations made while blocked." (fun s ->
      s.donations);
  counter "lock_acquires_total" "Mutex acquisitions." (fun s -> s.lock_acquires);
  counter "lock_contended_total" "Mutex acquisitions that had to queue."
    (fun s -> s.lock_contended);
  counter "rpcs_sent_total" "RPC requests sent." (fun s -> s.rpcs);
  counter "rpcs_served_total" "RPC requests picked up for service." (fun s ->
      s.rpcs_served);
  counter "rpcs_shed_total" "RPC requests shed by bounded-port admission."
    (fun s -> s.rpcs_shed);
  let summary_metric name help get =
    prom_family buf ~name:(namespace ^ "_" ^ name) ~help (`Summary (rows get))
  in
  summary_metric "wait_us" "Block-to-wake latency, microseconds of virtual time."
    (fun s -> s.wait);
  summary_metric "dispatch_us"
    "Runnable-to-selected latency, microseconds of virtual time." (fun s ->
      s.dispatch);
  Buffer.contents buf
