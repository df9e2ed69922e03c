(* Space-shared resource managers: inverse-lottery memory and lottery I/O
   bandwidth. *)

module Im = Core.Inverse_memory
module Io = Core.Io_bandwidth
module Rng = Core.Rng
module Chi = Core.Chi_square

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let rng seed = Rng.create ~algo:Splitmix64 ~seed ()

(* --- inverse memory ------------------------------------------------------------ *)

let test_no_eviction_until_full () =
  let pool = Im.create ~frames:10 ~rng:(rng 1) () in
  let c = Im.add_client pool ~name:"c" ~tickets:1 ~working_set:5 in
  for p = 0 to 4 do
    (match Im.access pool c p with
    | `Fault -> ()
    | `Hit -> Alcotest.fail "first touch must fault");
    ()
  done;
  checki "resident" 5 (Im.resident pool c);
  checki "free frames" 5 (Im.frames_free pool);
  checki "no evictions" 0 (Im.evictions_suffered pool c);
  (* second pass: all hits *)
  for p = 0 to 4 do
    match Im.access pool c p with
    | `Hit -> ()
    | `Fault -> Alcotest.fail "resident page must hit"
  done;
  checki "faults counted once" 5 (Im.faults pool c);
  checki "accesses counted" 10 (Im.accesses pool c)

let test_eviction_under_pressure () =
  let pool = Im.create ~frames:4 ~rng:(rng 2) () in
  let a = Im.add_client pool ~name:"a" ~tickets:1 ~working_set:8 in
  for p = 0 to 7 do
    ignore (Im.access pool a p)
  done;
  checki "capped at frames" 4 (Im.resident pool a);
  checki "free" 0 (Im.frames_free pool);
  checki "evictions" 4 (Im.evictions_suffered pool a)

let test_lru_within_victim () =
  (* LRU policy evicts the globally oldest page *)
  let pool = Im.create ~policy:Im.Global_lru ~frames:3 ~rng:(rng 3) () in
  let c = Im.add_client pool ~name:"c" ~tickets:1 ~working_set:4 in
  ignore (Im.access pool c 0);
  ignore (Im.access pool c 1);
  ignore (Im.access pool c 2);
  (* refresh page 0 so page 1 is oldest *)
  ignore (Im.access pool c 0);
  ignore (Im.access pool c 3);
  (* page 1 was evicted: touching it faults, touching 0 hits *)
  checkb "page 0 still resident" true (Im.access pool c 0 = `Hit);
  checkb "page 1 evicted" true (Im.access pool c 1 = `Fault)

(* LRU evictions against a naive model that scans every resident page for
   the oldest stamp, as the pool itself once did: under [Global_lru] the
   oldest page of all, and with one client under [Inverse_lottery] (every
   draw names it) that client's oldest. Every access must hit or fault
   alike, and every client end with the same residency and evictions. *)
let qcheck_lru_matches_scan =
  QCheck.Test.make ~count:300 ~name:"LRU eviction = scan for the oldest stamp"
    QCheck.(
      triple (int_range 1 8) (list_of_size Gen.(int_range 1 3) (int_range 1 10))
        (list_of_size Gen.(int_range 0 400) (pair small_nat small_nat)))
    (fun (frames, sets, accesses) ->
      let check_policy policy sets =
        let pool = Im.create ~policy ~frames ~rng:(rng 9) () in
        let sets = Array.of_list sets in
        let clients =
          Array.mapi
            (fun i ws ->
              Im.add_client pool ~name:(Printf.sprintf "c%d" i) ~tickets:1 ~working_set:ws)
            sets
        in
        let model = Array.map (fun _ -> Hashtbl.create 8) sets in
        let evictions = Array.make (Array.length sets) 0 in
        let clock = ref 0 and used = ref 0 in
        List.for_all
          (fun (ci, v) ->
            let ci = ci mod Array.length sets in
            let v = v mod sets.(ci) in
            incr clock;
            let expected =
              if Hashtbl.mem model.(ci) v then `Hit
              else begin
                if !used >= frames then begin
                  let best = ref None in
                  Array.iteri
                    (fun i tbl ->
                      Hashtbl.iter
                        (fun page st ->
                          match !best with
                          | Some (_, _, s) when s < st -> ()
                          | _ -> best := Some (i, page, st))
                        tbl)
                    model;
                  let i, page, _ = Option.get !best in
                  Hashtbl.remove model.(i) page;
                  evictions.(i) <- evictions.(i) + 1;
                  decr used
                end;
                incr used;
                `Fault
              end
            in
            Hashtbl.replace model.(ci) v !clock;
            Im.access pool clients.(ci) v = expected)
          accesses
        && Array.for_all Fun.id
             (Array.mapi
                (fun i c ->
                  Im.resident pool c = Hashtbl.length model.(i)
                  && Im.evictions_suffered pool c = evictions.(i))
                clients)
      in
      check_policy Im.Global_lru sets && check_policy Im.Inverse_lottery [ List.hd sets ])

let steady_state ?(seed = 4) ~allocations policy =
  let pool = Im.create ~policy ~frames:120 ~rng:(rng seed) () in
  let clients =
    List.map
      (fun (name, tickets) -> Im.add_client pool ~name ~tickets ~working_set:160)
      allocations
  in
  (* settle, then average residency over several snapshots to damp the
     random-victim fluctuations (resident counts wander by ~sqrt(frames)) *)
  Im.simulate pool ~steps:60_000;
  let sums = Array.make (List.length clients) 0 in
  let snapshots = 10 in
  for _ = 1 to snapshots do
    Im.simulate pool ~steps:6_000;
    List.iteri (fun i c -> sums.(i) <- sums.(i) + Im.resident pool c) clients
  done;
  Array.to_list (Array.map (fun s -> s / snapshots) sums)

let touch pool pages c = List.iter (fun p -> ignore (Im.access pool c p)) pages

(* §6.2: with n clients holding equal shares of memory, client i loses a
   frame with probability (1 - t_i/T) / (n - 1). Each pool here is three
   raw clients at 3:2:1 with two of its six frames each, and one more
   fault picks the victim: 1/4, 1/3 and 5/12. The faulting client takes
   part in the lottery like any other holder, so it can be its own
   victim: the faulter rotates over the three. Returns how often each
   client was the victim, and how often it was its own. *)
let inverse_victim_counts () =
  let r = rng 62 in
  let pools = 3_000 in
  let victims = Array.make 3 0 and self = Array.make 3 0 in
  for i = 0 to pools - 1 do
    let pool = Im.create ~frames:6 ~rng:r () in
    let add name tickets = Im.add_client pool ~name ~tickets ~working_set:3 in
    let clients = [| add "a" 3; add "b" 2; add "c" 1 |] in
    Array.iter (touch pool [ 0; 1 ]) clients;
    let faulter = i mod 3 in
    checkb "a third page faults" true (Im.access pool clients.(faulter) 2 = `Fault);
    let lost = Array.map (fun c -> Im.evictions_suffered pool c) clients in
    checki "one victim" 1 (Array.fold_left ( + ) 0 lost);
    Array.iteri
      (fun v n ->
        if n = 1 then begin
          victims.(v) <- victims.(v) + 1;
          if v = faulter then self.(v) <- self.(v) + 1
        end)
      lost
  done;
  (victims, self)

let inverse_formula t = (1. -. (t /. 6.)) /. 2.

let test_inverse_probabilities () =
  let victims, _ = inverse_victim_counts () in
  let pools = float_of_int (Array.fold_left ( + ) 0 victims) in
  List.iteri
    (fun v t ->
      let seen = float_of_int victims.(v) /. pools in
      checkb
        (Printf.sprintf "client %d loses %.3f, formula %.3f" v seen (inverse_formula t))
        true
        (Float.abs (seen -. inverse_formula t) < 0.03))
    [ 3.; 2.; 1. ];
  checkb "fewer tickets lose more often" true
    (victims.(0) < victims.(1) && victims.(1) < victims.(2))

let test_inverse_distribution () =
  let victims, self = inverse_victim_counts () in
  checkb
    (Printf.sprintf "victims %d:%d:%d match (1 - t/T)/(n - 1)" victims.(0)
       victims.(1) victims.(2))
    true
    (Chi.goodness_of_fit ~observed:victims
       ~weights:[| inverse_formula 3.; inverse_formula 2.; inverse_formula 1. |] ());
  Array.iteri
    (fun v n -> checkb (Printf.sprintf "client %d evicted its own page" v) true (n > 0))
    self

(* A client whose tickets count in T but who holds no frames is never
   picked. *)
let test_inverse_occupancy_weighting () =
  let r = rng 63 in
  for _ = 1 to 200 do
    let pool = Im.create ~frames:4 ~rng:r () in
    let a = Im.add_client pool ~name:"a" ~tickets:1 ~working_set:5 in
    let b = Im.add_client pool ~name:"b" ~tickets:1 ~working_set:5 in
    let idle = Im.add_client pool ~name:"idle" ~tickets:1 ~working_set:1 in
    List.iter (touch pool [ 0; 1 ]) [ a; b ];
    ignore (Im.access pool a 2);
    checki "a frameless client never loses" 0 (Im.evictions_suffered pool idle)
  done

let test_inverse_orders_by_tickets () =
  (* a pronounced 18:5:1 allocation makes the inverse weights (1 - t/T)
     clearly distinct: 0.25 vs 0.79 vs 0.96 *)
  match
    steady_state ~allocations:[ ("gold", 900); ("silver", 250); ("bronze", 50) ]
      Im.Inverse_lottery
  with
  | [ gold; silver; bronze ] ->
      checkb
        (Printf.sprintf "residency ordered %d > %d > %d" gold silver bronze)
        true
        (gold > silver && silver > bronze);
      checkb "spread is material" true (float_of_int gold > 1.8 *. float_of_int bronze)
  | _ -> Alcotest.fail "three clients expected"

let test_ticket_blind_policies_split_evenly () =
  List.iter
    (fun policy ->
      match
        steady_state ~allocations:[ ("gold", 900); ("silver", 250); ("bronze", 50) ]
          policy
      with
      | [ gold; _silver; bronze ] ->
          checkb "even within 25% despite skewed tickets" true
            (abs (gold - bronze) * 100 < 25 * max gold bronze)
      | _ -> Alcotest.fail "three clients expected")
    [ Im.Global_lru; Im.Global_random ]

let test_set_tickets_shifts_residency () =
  let pool = Im.create ~frames:100 ~rng:(rng 5) () in
  let a = Im.add_client pool ~name:"a" ~tickets:100 ~working_set:150 in
  let b = Im.add_client pool ~name:"b" ~tickets:100 ~working_set:150 in
  Im.simulate pool ~steps:40_000;
  Im.set_tickets pool b 1000;
  Im.simulate pool ~steps:80_000;
  checkb "b's residency outgrows a's after inflation" true
    (Im.resident pool b > Im.resident pool a)

let test_memory_validation () =
  Alcotest.check_raises "frames" (Invalid_argument "Inverse_memory.create: frames <= 0")
    (fun () -> ignore (Im.create ~frames:0 ~rng:(rng 6) ()));
  let pool = Im.create ~frames:2 ~rng:(rng 7) () in
  let c = Im.add_client pool ~name:"c" ~tickets:1 ~working_set:2 in
  Alcotest.check_raises "page range"
    (Invalid_argument "Inverse_memory.access: page outside working set") (fun () ->
      ignore (Im.access pool c 2));
  Alcotest.check_raises "no clients" (Invalid_argument "Inverse_memory.simulate: no clients")
    (fun () ->
      Im.simulate (Im.create ~frames:2 ~rng:(rng 8) ()) ~steps:1)

let test_single_over_provisioned_client_still_evicts () =
  (* t_i = T makes the paper's weight zero; the occupancy floor must keep
     the pool functional *)
  let pool = Im.create ~frames:2 ~rng:(rng 9) () in
  let c = Im.add_client pool ~name:"only" ~tickets:50 ~working_set:5 in
  for i = 0 to 4 do
    ignore (Im.access pool c i)
  done;
  checki "still capped" 2 (Im.resident pool c)

let test_zipf_locality_raises_hit_rate () =
  let run pattern =
    let pool = Im.create ~frames:50 ~rng:(rng 40) () in
    let c = Im.add_client pool ~name:"c" ~tickets:1 ~working_set:500 in
    Im.simulate ~pattern pool ~steps:50_000;
    1. -. (float_of_int (Im.faults pool c) /. float_of_int (Im.accesses pool c))
  in
  let uniform = run Im.Uniform and zipf = run (Im.Zipf 1.0) in
  checkb
    (Printf.sprintf "zipf hit rate %.2f well above uniform %.2f" zipf uniform)
    true
    (zipf > uniform +. 0.2);
  (* uniform hit rate roughly frames/working_set = 10% *)
  checkb "uniform hit rate sane" true (uniform > 0.05 && uniform < 0.2)

let test_zipf_validation () =
  let pool = Im.create ~frames:2 ~rng:(rng 41) () in
  ignore (Im.add_client pool ~name:"c" ~tickets:1 ~working_set:4);
  checkb "zipf s must be positive" true
    (match Im.simulate ~pattern:(Im.Zipf 0.) pool ~steps:1 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- disk --------------------------------------------------------------------------- *)

module Disk = Core.Disk

let test_disk_service_time_math () =
  let disk = Disk.create ~policy:Disk.Fcfs ~seek_cost:10 ~transfer_cost:2000 ~rng:(rng 20) () in
  let c = Disk.add_client disk ~name:"c" ~tickets:1 in
  Disk.submit disk c ~cylinder:100;
  Disk.submit disk c ~cylinder:50;
  checkb "first request served" true (Disk.serve_one disk <> None);
  (* head 0 -> 100: 100*10 + 2000 *)
  checki "clock after seek+transfer" 3000 (Disk.now disk);
  checki "head moved" 100 (Disk.head_position disk);
  ignore (Disk.serve_one disk);
  (* 100 -> 50: 50*10 + 2000 *)
  checki "clock accumulates" 5500 (Disk.now disk);
  checki "seek distance" 150 (Disk.total_seek_distance disk);
  checkb "idle when drained" true (Disk.serve_one disk = None)

let test_disk_sstf_picks_nearest () =
  let disk = Disk.create ~policy:Disk.Sstf ~rng:(rng 21) () in
  let c = Disk.add_client disk ~name:"c" ~tickets:1 in
  Disk.submit disk c ~cylinder:900;
  Disk.submit disk c ~cylinder:10;
  Disk.submit disk c ~cylinder:500;
  ignore (Disk.serve_one disk);
  checki "nearest first (head at 0)" 10 (Disk.head_position disk);
  ignore (Disk.serve_one disk);
  checki "then 500" 500 (Disk.head_position disk);
  ignore (Disk.serve_one disk);
  checki "then 900" 900 (Disk.head_position disk)

let test_disk_fcfs_order () =
  let disk = Disk.create ~policy:Disk.Fcfs ~rng:(rng 22) () in
  let a = Disk.add_client disk ~name:"a" ~tickets:1 in
  let b = Disk.add_client disk ~name:"b" ~tickets:100 in
  Disk.submit disk a ~cylinder:900;
  Disk.submit disk b ~cylinder:10;
  (* fcfs ignores both tickets and seek distance *)
  (match Disk.serve_one disk with
  | Some winner -> Alcotest.check Alcotest.string "oldest first" "a" (Disk.client_name winner)
  | None -> Alcotest.fail "no service");
  checki "head at 900" 900 (Disk.head_position disk)

let test_disk_lottery_proportional () =
  let disk = Disk.create ~policy:Disk.Lottery ~rng:(rng 23) () in
  let wl = rng 24 in
  let a = Disk.add_client disk ~name:"a" ~tickets:3 in
  let b = Disk.add_client disk ~name:"b" ~tickets:1 in
  let refill () =
    List.iter
      (fun c ->
        while Disk.pending disk c < 8 do
          Disk.submit disk c ~cylinder:(Rng.int_below wl 1000)
        done)
      [ a; b ]
  in
  for _ = 1 to 8_000 do
    refill ();
    ignore (Disk.serve_one disk)
  done;
  let observed = [| Disk.served disk a; Disk.served disk b |] in
  checkb "3:1 by chi-square" true
    (Chi.goodness_of_fit ~observed ~weights:[| 3.; 1. |] ())

let test_disk_no_starvation_under_lottery () =
  (* SSTF starves a far-away request while near traffic persists; the
     lottery does not *)
  let run policy =
    let disk = Disk.create ~policy ~rng:(rng 25) () in
    let near = Disk.add_client disk ~name:"near" ~tickets:1 in
    let far = Disk.add_client disk ~name:"far" ~tickets:1 in
    Disk.submit disk far ~cylinder:999;
    for _ = 1 to 500 do
      Disk.submit disk near ~cylinder:1;
      ignore (Disk.serve_one disk)
    done;
    Disk.served disk far
  in
  checki "sstf starves the far request" 0 (run Disk.Sstf);
  checkb "lottery serves it" true (run Disk.Lottery > 0)

let test_disk_validation () =
  let disk = Disk.create ~rng:(rng 26) () in
  let c = Disk.add_client disk ~name:"c" ~tickets:1 in
  Alcotest.check_raises "cylinder range" (Invalid_argument "Disk.submit: cylinder out of range")
    (fun () -> Disk.submit disk c ~cylinder:1000);
  checkb "negative tickets" true
    (match Disk.add_client disk ~name:"x" ~tickets:(-1) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "mean latency nan before service" true (Float.is_nan (Disk.mean_latency disk c))

(* --- switch ------------------------------------------------------------------------- *)

module Sw = Core.Switch

let test_switch_uncongested_delivers_everything () =
  let sw = Sw.create ~ports:1 ~rng:(rng 30) () in
  let c = Sw.add_circuit sw ~name:"c" ~output_port:0 ~tickets:1 ~rate:0.4 in
  Sw.step sw ~slots:20_000;
  checki "no drops" 0 (Sw.dropped sw c);
  checkb "delivered matches arrivals (~0.4/slot)" true
    (abs (Sw.delivered sw c + Sw.backlog sw c - 8000) < 400);
  checkb "tiny delay" true (Sw.mean_delay sw c < 2.)

let test_switch_congested_shares () =
  let sw = Sw.create ~ports:1 ~rng:(rng 31) () in
  let a = Sw.add_circuit sw ~name:"a" ~output_port:0 ~tickets:3 ~rate:0.8 in
  let b = Sw.add_circuit sw ~name:"b" ~output_port:0 ~tickets:1 ~rate:0.8 in
  Sw.step sw ~slots:30_000;
  let observed = [| Sw.delivered sw a; Sw.delivered sw b |] in
  checkb "3:1 delivered (chi-square)" true
    (Chi.goodness_of_fit ~observed ~weights:[| 3.; 1. |] ());
  checkb "port saturated" true (Sw.port_utilization sw 0 > 0.99);
  checkb "poor circuit drops more" true (Sw.dropped sw b > Sw.dropped sw a);
  checkb "poor circuit waits longer" true (Sw.mean_delay sw b > Sw.mean_delay sw a)

let test_switch_ports_independent () =
  let sw = Sw.create ~ports:2 ~rng:(rng 32) () in
  let hog = Sw.add_circuit sw ~name:"hog" ~output_port:0 ~tickets:1000 ~rate:1.0 in
  let quiet = Sw.add_circuit sw ~name:"quiet" ~output_port:1 ~tickets:1 ~rate:0.2 in
  Sw.step sw ~slots:10_000;
  ignore hog;
  checki "no drops on the quiet port" 0 (Sw.dropped sw quiet);
  checkb "quiet circuit unaffected" true (Sw.mean_delay sw quiet < 2.)

let test_switch_buffer_capacity () =
  let sw = Sw.create ~ports:1 ~buffer_capacity:4 ~rng:(rng 33) () in
  let starved = Sw.add_circuit sw ~name:"starved" ~output_port:0 ~tickets:0 ~rate:1.0 in
  let winner = Sw.add_circuit sw ~name:"winner" ~output_port:0 ~tickets:10 ~rate:1.0 in
  Sw.step sw ~slots:1_000;
  ignore winner;
  checkb "backlog capped" true (Sw.backlog sw starved <= 4);
  checkb "overflow counted" true (Sw.dropped sw starved > 900)

let test_switch_validation () =
  let sw = Sw.create ~ports:2 ~rng:(rng 34) () in
  checkb "port range" true
    (match Sw.add_circuit sw ~name:"x" ~output_port:2 ~tickets:1 ~rate:0.5 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "rate range" true
    (match Sw.add_circuit sw ~name:"x" ~output_port:0 ~tickets:1 ~rate:1.5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- io bandwidth ------------------------------------------------------------------ *)

let test_io_proportional_shares () =
  let dev = Io.create ~rng:(rng 10) () in
  let a = Io.add_client dev ~name:"a" ~tickets:3 in
  let b = Io.add_client dev ~name:"b" ~tickets:2 in
  let c = Io.add_client dev ~name:"c" ~tickets:1 in
  List.iter (fun cl -> Io.submit dev cl ~requests:50_000) [ a; b; c ];
  Io.serve dev ~slots:30_000;
  checki "all slots served" 30_000 (Io.total_served dev);
  let observed = [| Io.served dev a; Io.served dev b; Io.served dev c |] in
  checkb "3:2:1 by chi-square" true
    (Chi.goodness_of_fit ~observed ~weights:[| 3.; 2.; 1. |] ())

let test_io_idle_client_share_redistributes () =
  let dev = Io.create ~rng:(rng 11) () in
  let a = Io.add_client dev ~name:"a" ~tickets:3 in
  let b = Io.add_client dev ~name:"b" ~tickets:2 in
  let c = Io.add_client dev ~name:"c" ~tickets:1 in
  (* b has nothing queued: a and c split 3:1 *)
  Io.submit dev a ~requests:40_000;
  Io.submit dev c ~requests:40_000;
  ignore b;
  Io.serve dev ~slots:20_000;
  let observed = [| Io.served dev a; Io.served dev c |] in
  checkb "3:1 between backlogged clients" true
    (Chi.goodness_of_fit ~observed ~weights:[| 3.; 1. |] ())

let test_io_drains_and_idles () =
  let dev = Io.create ~rng:(rng 12) () in
  let a = Io.add_client dev ~name:"a" ~tickets:1 in
  Io.submit dev a ~requests:5;
  Io.serve dev ~slots:100;
  checki "only queued requests served" 5 (Io.served dev a);
  checki "queue empty" 0 (Io.pending dev a);
  checkb "device idle" true (Io.serve_slot dev = None)

let test_io_cancel_pending () =
  let dev = Io.create ~rng:(rng 13) () in
  let a = Io.add_client dev ~name:"a" ~tickets:1 in
  Io.submit dev a ~requests:10;
  Io.cancel_pending dev a;
  checki "cancelled" 0 (Io.pending dev a);
  checkb "nothing to serve" true (Io.serve_slot dev = None)

let test_io_zero_ticket_backlog_served_fifo () =
  let dev = Io.create ~rng:(rng 14) () in
  let a = Io.add_client dev ~name:"a" ~tickets:0 in
  Io.submit dev a ~requests:3;
  Io.serve dev ~slots:10;
  checki "unfunded but alone: still served" 3 (Io.served dev a)

let test_io_ticket_change_mid_run () =
  let dev = Io.create ~rng:(rng 16) () in
  let a = Io.add_client dev ~name:"a" ~tickets:1 in
  let b = Io.add_client dev ~name:"b" ~tickets:1 in
  List.iter (fun c -> Io.submit dev c ~requests:100_000) [ a; b ];
  Io.serve dev ~slots:10_000;
  let a1 = Io.served dev a in
  Io.set_tickets dev a 9;
  Io.serve dev ~slots:10_000;
  let a2 = Io.served dev a - a1 in
  checkb "first phase even" true (abs (a1 - 5_000) < 500);
  checkb "second phase ~90%" true (abs (a2 - 9_000) < 500)

let test_io_validation () =
  let dev = Io.create ~rng:(rng 15) () in
  checkb "negative tickets rejected" true
    (match Io.add_client dev ~name:"x" ~tickets:(-1) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let a = Io.add_client dev ~name:"a" ~tickets:1 in
  checkb "negative submit rejected" true
    (match Io.submit dev a ~requests:(-1) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- funded-client change tracker ---------------------------------------------- *)

module Fd = Lotto_res.Funded
module F = Core.Funding

(* A seat table with one funded client ("c", funded by "tenant"), and the
   currency's backing ticket to mutate. *)
let tracker_setup () =
  let sys = F.create_system () in
  let tr = Fd.table (Some sys) in
  let cur = F.make_currency sys ~name:"tenant" in
  let tk = F.issue sys ~currency:(F.base sys) ~amount:100 in
  F.fund sys ~ticket:tk ~currency:cur;
  ignore
    (Fd.funded tr ~who:"test" ~name:"c" ~amount:10 ~currency:cur ~active:true (fun _ ->
         "c"));
  (sys, tr, cur, tk)

(* the clients one refresh revalues, in refresh order *)
let refreshed tr =
  let seen = ref [] in
  Fd.refresh tr seen (fun seen c _ -> seen := c :: !seen);
  List.rev !seen

let check_refreshed msg expected tr =
  check (Alcotest.list Alcotest.string) msg expected (refreshed tr)

let test_tracker_mutations_between_drains_surface () =
  let sys, tr, cur, tk = tracker_setup () in
  (* watches hear only of a currency whose value cache was validated (a
     currency never read may stay stale), so read the value first —
     exactly what a manager's revalue step does before a draw *)
  ignore (F.currency_value sys cur);
  ignore (refreshed tr);
  F.set_amount sys tk 20;
  check_refreshed "mutation dirties the funded client" [ "c" ] tr;
  check_refreshed "refresh must consume the queued currency" [] tr;
  (* a mutation landing after a refresh (i.e. between revalue and the draw
     itself) must surface on the NEXT refresh, not vanish *)
  ignore (F.currency_value sys cur);
  F.set_amount sys tk 30;
  check_refreshed "post-refresh mutation surfaces next refresh" [ "c" ] tr;
  check_refreshed "second refresh must be empty" [] tr

let test_tracker_reports_moves () =
  let sys, tr, cur, tk = tracker_setup () in
  ignore
    (Fd.funded tr ~who:"test" ~name:"d" ~amount:10 ~currency:cur ~active:false (fun _ ->
         "d"));
  ignore (refreshed tr);
  F.set_amount sys tk 200;
  let seen = ref [] in
  Fd.refresh tr seen (fun seen c moved -> seen := (c, moved) :: !seen);
  check
    Alcotest.(list (pair string bool))
    "newest first; a suspended seat's value stays 0"
    [ ("d", false); ("c", true) ]
    (List.rev !seen)

let test_tracker_ignores_unfunded_currencies () =
  let sys, tr, cur, _ = tracker_setup () in
  let other = F.make_currency sys ~name:"other" in
  let backing = F.issue sys ~currency:(F.base sys) ~amount:50 in
  F.fund sys ~ticket:backing ~currency:other;
  let tk = F.issue sys ~currency:other ~amount:5 in
  F.hold sys tk;
  ignore (F.currency_value sys other);
  ignore (F.currency_value sys cur);
  ignore (refreshed tr);
  F.set_amount sys tk 7;
  F.suspend sys tk;
  F.set_amount sys backing 60;
  checki "nothing recorded for a currency funding no client" 0
    (Fd.pending tr);
  check_refreshed "nothing revalued" [] tr

(* A seat can draw on a thread's own currency, which the scheduler also
   watches: one flip of it must reach both consumers — the scheduler's
   weight for the thread (the currency's value) and the device's value for
   the seat (its ticket's half of the currency's active amount). *)
let test_thread_currency_seat_reaches_both () =
  let ls = Core.Lottery_sched.create ~rng:(rng 51) () in
  let sys = Core.Lottery_sched.funding ls in
  let k = Core.Kernel.create ~sched:(Core.Lottery_sched.sched ls) () in
  let th =
    Core.Kernel.spawn k ~name:"worker" (fun () ->
        while true do
          Core.Api.compute (Core.Time.ms 1)
        done)
  in
  let backing =
    Core.Lottery_sched.fund_thread ls th ~amount:100
      ~from:(Core.Lottery_sched.base_currency ls)
  in
  let dev = Io.create ~funding:sys ~rng:(rng 52) () in
  let thread_cur =
    Option.get
      (F.find_currency sys (Printf.sprintf "thread:%d:worker" th.Core.Types.id))
  in
  let seat = Io.add_funded_client dev ~name:"worker-io" ~currency:thread_cur () in
  Io.submit dev seat ~requests:10;
  let weight () =
    ignore ((Core.Lottery_sched.sched ls).Core.Types.select ~cpu:0);
    Option.get (Core.Lottery_sched.draw_weight ls th)
  in
  check (Alcotest.float 0.) "scheduler: the currency's value" 100. (weight ());
  check (Alcotest.float 0.) "device: half of it" 50. (Io.value dev seat);
  let h0 = F.hook_calls sys in
  Core.Lottery_sched.set_ticket_amount ls backing 300;
  checki "one flip, two hooks" 2 (F.hook_calls sys - h0);
  check (Alcotest.float 0.) "scheduler: the new value" 300. (weight ());
  check (Alcotest.float 0.) "device: half of it" 150. (Io.value dev seat)

(* Regression: a funded manager that is never served must not
   retain the ids of unrelated currencies as they churn (ids are never
   recycled, so recording every dirtied currency grows without bound). *)
let test_idle_manager_bounded_under_currency_churn () =
  let sys = F.create_system () in
  let dev = Io.create ~funding:sys ~rng:(rng 31) () in
  let cur = F.make_currency sys ~name:"tenant" in
  let tk = F.issue sys ~currency:(F.base sys) ~amount:100 in
  F.fund sys ~ticket:tk ~currency:cur;
  ignore (Io.add_funded_client dev ~name:"idle" ~currency:cur ());
  let churn n =
    for i = 1 to n do
      let c = F.make_currency sys ~name:(Printf.sprintf "churn%d" i) in
      let b = F.issue sys ~currency:(F.base sys) ~amount:10 in
      F.fund sys ~ticket:b ~currency:c;
      let t = F.issue sys ~currency:c ~amount:10 in
      F.hold sys t;
      ignore (F.ticket_value sys t);
      F.suspend sys t;
      F.destroy_ticket sys t;
      F.destroy_ticket sys b;
      F.remove_currency sys c
    done
  in
  (* words reachable from the manager: its tracker, its clients and the
     funding system, whose arenas recycle the churned slots *)
  let held () = Obj.reachable_words (Obj.repr dev) in
  churn 1_000;
  let before = held () in
  churn 20_000;
  let after = held () in
  checkb
    (Printf.sprintf "manager footprint bounded (%d -> %d words)" before after)
    true
    (after - before < 2_000)

(* Every manager, after random funding mutations, holds for each funded
   client exactly the value a from-scratch valuation gives: the tracker's
   scoped refresh never leaves a stale weight behind. *)
type probe = {
  pname : string;
  values : unit -> (float * float) list; (* (manager's value, expected) *)
}

let expected_value sys cur ~active =
  if active then 1000. *. F.unit_value sys cur else 0.

let build_probes sys curs =
  let io = Io.create ~funding:sys ~rng:(rng 41) () in
  let dk = Core.Disk.create ~funding:sys ~rng:(rng 42) () in
  let sw = Core.Switch.create ~ports:1 ~funding:sys ~rng:(rng 43) () in
  let im = Im.create ~funding:sys ~frames:64 ~rng:(rng 44) () in
  let per_cur f = List.concat_map (fun cur -> [ (cur, f cur 0); (cur, f cur 1) ]) curs in
  let ios =
    per_cur (fun cur i ->
        let c = Io.add_funded_client io ~name:(Printf.sprintf "io%d" i) ~currency:cur () in
        Io.submit io c ~requests:1;
        c)
  in
  let dks =
    per_cur (fun cur i ->
        let c =
          Core.Disk.add_funded_client dk ~name:(Printf.sprintf "dk%d" i) ~currency:cur ()
        in
        Core.Disk.submit dk c ~cylinder:0;
        c)
  in
  let sws =
    per_cur (fun cur i ->
        Core.Switch.add_funded_circuit sw ~name:(Printf.sprintf "sw%d" i)
          ~output_port:0 ~rate:1. ~currency:cur ())
  in
  (* every circuit offers a cell per slot and the port drains one, so all
     stay backlogged from here on *)
  Core.Switch.step sw ~slots:4;
  let ims =
    per_cur (fun cur i ->
        Im.add_funded_client im ~name:(Printf.sprintf "im%d" i) ~working_set:4
          ~currency:cur ())
  in
  [
    { pname = "io"; values = (fun () ->
          List.map (fun (cur, c) ->
              (Io.value io c, expected_value sys cur ~active:(Io.pending io c > 0)))
            ios) };
    { pname = "disk"; values = (fun () ->
          List.map (fun (cur, c) ->
              ( Core.Disk.value dk c,
                expected_value sys cur ~active:(Core.Disk.pending dk c > 0) ))
            dks) };
    { pname = "switch"; values = (fun () ->
          List.map (fun (cur, c) ->
              ( Core.Switch.value sw c,
                expected_value sys cur ~active:(Core.Switch.backlog sw c > 0) ))
            sws) };
    { pname = "inverse-memory"; values = (fun () ->
          List.map (fun (cur, c) ->
              (Im.value im c, expected_value sys cur ~active:true))
            ims) };
  ]

type mutation = Set_backing of int * int | Toggle_sibling of int | Fund_sibling of int * int

let gen_mutation =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i a -> Set_backing (i, a)) (int_bound 2) (int_range 1 500);
        map (fun i -> Toggle_sibling i) (int_bound 2);
        map2 (fun i a -> Fund_sibling (i, a)) (int_bound 2) (int_range 1 500);
      ])

let show_mutation = function
  | Set_backing (i, a) -> Printf.sprintf "set_backing %d %d" i a
  | Toggle_sibling i -> Printf.sprintf "toggle_sibling %d" i
  | Fund_sibling (i, a) -> Printf.sprintf "fund_sibling %d %d" i a

let prop_managers_track_funding muts =
  let sys = F.create_system () in
  let curs = List.init 3 (fun i -> F.make_currency sys ~name:(Printf.sprintf "cur%d" i)) in
  let backing =
    Array.of_list
      (List.map
         (fun cur ->
           let tk = F.issue sys ~currency:(F.base sys) ~amount:100 in
           F.fund sys ~ticket:tk ~currency:cur;
           tk)
         curs)
  in
  (* a competing consumer in each currency, so toggling it moves the
     currency's active amount and with it every client's share *)
  let siblings =
    Array.of_list
      (List.map
         (fun cur ->
           let tk = F.issue sys ~currency:cur ~amount:500 in
           F.hold sys tk;
           tk)
         curs)
  in
  let curs_a = Array.of_list curs in
  let probes = build_probes sys curs in
  let close (got, want) = abs_float (got -. want) <= 1e-9 *. max 1. (abs_float want) in
  let ok () =
    F.check_invariants sys;
    List.for_all (fun p -> List.for_all close (p.values ())) probes
  in
  ok ()
  && List.for_all
       (fun m ->
         (match m with
         | Set_backing (i, a) -> F.set_amount sys backing.(i) a
         | Toggle_sibling i ->
             if F.is_active sys siblings.(i) then F.suspend sys siblings.(i)
             else F.resume sys siblings.(i)
         | Fund_sibling (i, a) ->
             let tk = F.issue sys ~currency:(F.base sys) ~amount:a in
             F.fund sys ~ticket:tk ~currency:curs_a.(i));
         ok ())
       muts

let qcheck_managers_track_funding =
  QCheck.Test.make ~count:100
    ~name:"every manager's funded values match a fresh valuation"
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_mutation l))
       QCheck.Gen.(list_size (int_range 1 30) gen_mutation))
    prop_managers_track_funding

(* --- golden: every manager's exact streams --------------------------------------- *)

(* Each manager on fixed seeds with a raw client and two funded ones: served
   counts, values and the Resource_draw stream across phases separated by a
   set_tickets on a raw client and an inflation of one funding currency. The
   statistical tests above pass for any stream with the right shares; this
   one pins the streams themselves. The bus watcher attaches after the first
   phase, so that phase draws with the bus idle. *)

let golden_funding () =
  let sys = F.create_system () in
  let backed name amount =
    let cur = F.make_currency sys ~name in
    let tk = F.issue sys ~currency:(F.base sys) ~amount in
    F.fund sys ~ticket:tk ~currency:cur;
    (cur, tk)
  in
  let a, a_backing = backed "A" 300 in
  let b, _ = backed "B" 100 in
  (sys, a, a_backing, b)

let golden_output () =
  let buf = Buffer.create 16384 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let watch bus =
    ignore
      (Core.Obs.Bus.subscribe ~name:"resmgr-golden" bus (fun time ev ->
           match ev with
           | Core.Obs.Event.Resource_draw { who; resource; contenders; total_weight } ->
               line "    %d %s won by %d:%s contenders=%d total=%.17g" time resource
                 who.tid who.tname contenders total_weight
           | _ -> ()))
  in
  (* Each manager runs [phase] four times: plain, after [set_tickets raw 50],
     after inflating currency A's backing 300 -> 900, and after
     [set_tickets raw 0]. A phase's draws print under its header, before
     its closing counts. *)
  let drive ~name ~bus ~set_raw ~a_backing ~sys phase =
    let run label =
      line "  -- %s" label;
      phase ()
    in
    line "== %s ==" name;
    run "plain";
    watch bus;
    set_raw 50;
    run "raw at 50";
    F.set_amount sys a_backing 900;
    run "A inflated";
    set_raw 0;
    run "raw at 0"
  in
  (* disk: top every queue up to 4 requests, then serve 10 *)
  (let module Dk = Core.Disk in
   let sys, a, a_backing, b = golden_funding () in
   let dk = Dk.create ~cylinders:200 ~funding:sys ~rng:(rng 101) () in
   let raw = Dk.add_client dk ~name:"raw" ~tickets:200 in
   let fa = Dk.add_funded_client dk ~name:"fa" ~currency:a () in
   let fb = Dk.add_funded_client dk ~name:"fb" ~amount:500 ~currency:b () in
   let crng = rng 102 in
   let phase () =
     List.iter
       (fun c ->
         while Dk.pending dk c < 4 do
           Dk.submit dk c ~cylinder:(Rng.int_below crng 200)
         done)
       [ raw; fa; fb ];
     for _ = 1 to 10 do
       ignore (Dk.serve_one dk)
     done;
     line "  now=%d head=%d seek=%d" (Dk.now dk) (Dk.head_position dk)
       (Dk.total_seek_distance dk);
     List.iter
       (fun c ->
         line "  %s served=%d pending=%d value=%.17g" (Dk.client_name c) (Dk.served dk c)
           (Dk.pending dk c) (Dk.value dk c))
       [ raw; fa; fb ]
   in
   drive ~name:"disk" ~bus:(Dk.events dk) ~set_raw:(Dk.set_tickets dk raw) ~a_backing
     ~sys phase);
  (* io: top every client up to 6 requests, serve 4 single slots and a
     batch of 8; fb cancels what it has left after the single slots *)
  (let sys, a, a_backing, b = golden_funding () in
   let io = Io.create ~funding:sys ~rng:(rng 111) () in
   let raw = Io.add_client io ~name:"raw" ~tickets:200 in
   let fa = Io.add_funded_client io ~name:"fa" ~currency:a () in
   let fb = Io.add_funded_client io ~name:"fb" ~amount:500 ~currency:b () in
   let phase () =
     List.iter (fun c -> Io.submit io c ~requests:(6 - Io.pending io c)) [ raw; fa; fb ];
     for _ = 1 to 4 do
       ignore (Io.serve_slot io)
     done;
     Io.cancel_pending io fb;
     Io.serve io ~slots:8;
     line "  total=%d" (Io.total_served io);
     List.iter
       (fun c ->
         line "  %s served=%d pending=%d value=%.17g" (Io.client_name c) (Io.served io c)
           (Io.pending io c) (Io.value io c))
       [ raw; fa; fb ]
   in
   drive ~name:"io" ~bus:(Io.events io) ~set_raw:(Io.set_tickets io raw) ~a_backing ~sys
     phase);
  (* switch: two ports, a raw and a funded circuit on each; 12 slots *)
  (let module Sw = Core.Switch in
   let sys, a, a_backing, b = golden_funding () in
   let sw = Sw.create ~ports:2 ~buffer_capacity:4 ~funding:sys ~rng:(rng 121) () in
   let raw = Sw.add_circuit sw ~name:"raw" ~output_port:0 ~tickets:200 ~rate:0.6 in
   let fa = Sw.add_funded_circuit sw ~name:"fa" ~output_port:0 ~rate:0.5 ~currency:a () in
   let fb =
     Sw.add_funded_circuit sw ~name:"fb" ~output_port:1 ~amount:500 ~rate:0.7 ~currency:b ()
   in
   let r1 = Sw.add_circuit sw ~name:"r1" ~output_port:1 ~tickets:100 ~rate:0.5 in
   let circuits = [ raw; fa; fb; r1 ] in
   let phase () =
     Sw.step sw ~slots:12;
     line "  now=%d util=%.17g,%.17g" (Sw.now sw) (Sw.port_utilization sw 0)
       (Sw.port_utilization sw 1);
     List.iteri
       (fun i c ->
         line "  c%d delivered=%d dropped=%d backlog=%d delay=%.17g value=%.17g" i
           (Sw.delivered sw c) (Sw.dropped sw c) (Sw.backlog sw c) (Sw.mean_delay sw c)
           (Sw.value sw c))
       circuits
   in
   drive ~name:"switch" ~bus:(Sw.events sw) ~set_raw:(Sw.set_tickets sw raw) ~a_backing
     ~sys phase);
  (* inverse memory: 12 frames, three working sets of 8; 24 accesses *)
  (let sys, a, a_backing, b = golden_funding () in
   let im = Im.create ~funding:sys ~frames:12 ~rng:(rng 131) () in
   let raw = Im.add_client im ~name:"raw" ~tickets:200 ~working_set:8 in
   let fa = Im.add_funded_client im ~name:"fa" ~working_set:8 ~currency:a () in
   let fb = Im.add_funded_client im ~name:"fb" ~amount:500 ~working_set:8 ~currency:b () in
   let phase () =
     Im.simulate im ~steps:24;
     line "  free=%d" (Im.frames_free im);
     List.iter
       (fun c ->
         line "  %s resident=%d faults=%d accesses=%d evicted=%d value=%.17g"
           (Im.client_name c) (Im.resident im c) (Im.faults im c) (Im.accesses im c)
           (Im.evictions_suffered im c) (Im.value im c))
       [ raw; fa; fb ]
   in
   drive ~name:"inverse-memory" ~bus:(Im.events im) ~set_raw:(Im.set_tickets im raw)
     ~a_backing ~sys phase);
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_golden () =
  check Alcotest.string "manager streams unchanged"
    (read_file
       (Filename.concat (Filename.dirname Sys.executable_name) "resmgr_golden.expected"))
    (golden_output ())

let () =
  match Sys.argv with
  | [| _; "--print-golden" |] ->
      print_string (golden_output ());
      exit 0
  | _ -> ()

let () =
  Alcotest.run "resmgr"
    [
      ("golden", [ Alcotest.test_case "every manager's exact streams" `Quick test_golden ]);
      ( "inverse",
        [
          Alcotest.test_case "paper formula probabilities" `Quick test_inverse_probabilities;
          Alcotest.test_case "distribution (chi-square)" `Quick test_inverse_distribution;
          Alcotest.test_case "occupancy weighting" `Quick test_inverse_occupancy_weighting;
        ] );
      ( "inverse-memory",
        [
          Alcotest.test_case "no eviction until full" `Quick test_no_eviction_until_full;
          Alcotest.test_case "eviction under pressure" `Quick test_eviction_under_pressure;
          Alcotest.test_case "global LRU order" `Quick test_lru_within_victim;
          QCheck_alcotest.to_alcotest qcheck_lru_matches_scan;
          Alcotest.test_case "inverse lottery orders residency by tickets" `Slow
            test_inverse_orders_by_tickets;
          Alcotest.test_case "ticket-blind baselines split evenly" `Slow
            test_ticket_blind_policies_split_evenly;
          Alcotest.test_case "set_tickets shifts residency" `Slow
            test_set_tickets_shifts_residency;
          Alcotest.test_case "validation" `Quick test_memory_validation;
          Alcotest.test_case "over-provisioned lone client" `Quick
            test_single_over_provisioned_client_still_evicts;
          Alcotest.test_case "zipf locality raises hit rate" `Slow
            test_zipf_locality_raises_hit_rate;
          Alcotest.test_case "zipf validation" `Quick test_zipf_validation;
        ] );
      ( "disk",
        [
          Alcotest.test_case "service-time arithmetic" `Quick test_disk_service_time_math;
          Alcotest.test_case "sstf picks nearest" `Quick test_disk_sstf_picks_nearest;
          Alcotest.test_case "fcfs order beats tickets" `Quick test_disk_fcfs_order;
          Alcotest.test_case "lottery proportional (chi-square)" `Slow
            test_disk_lottery_proportional;
          Alcotest.test_case "lottery avoids sstf starvation" `Quick
            test_disk_no_starvation_under_lottery;
          Alcotest.test_case "validation" `Quick test_disk_validation;
        ] );
      ( "switch",
        [
          Alcotest.test_case "uncongested port delivers all" `Quick
            test_switch_uncongested_delivers_everything;
          Alcotest.test_case "congested port splits by tickets" `Slow
            test_switch_congested_shares;
          Alcotest.test_case "ports independent" `Quick test_switch_ports_independent;
          Alcotest.test_case "buffers bounded, drops counted" `Quick
            test_switch_buffer_capacity;
          Alcotest.test_case "validation" `Quick test_switch_validation;
        ] );
      ( "io-bandwidth",
        [
          Alcotest.test_case "3:2:1 shares (chi-square)" `Quick test_io_proportional_shares;
          Alcotest.test_case "idle share redistributes" `Quick
            test_io_idle_client_share_redistributes;
          Alcotest.test_case "drains and idles" `Quick test_io_drains_and_idles;
          Alcotest.test_case "cancel pending" `Quick test_io_cancel_pending;
          Alcotest.test_case "zero-ticket fifo fallback" `Quick
            test_io_zero_ticket_backlog_served_fifo;
          Alcotest.test_case "ticket change mid-run" `Quick test_io_ticket_change_mid_run;
          Alcotest.test_case "validation" `Quick test_io_validation;
        ] );
      ( "funded-tracker",
        [
          Alcotest.test_case "mutations between drains surface" `Quick
            test_tracker_mutations_between_drains_surface;
          Alcotest.test_case "refresh reports which values moved" `Quick
            test_tracker_reports_moves;
          Alcotest.test_case "currencies funding no client record nothing" `Quick
            test_tracker_ignores_unfunded_currencies;
          Alcotest.test_case "idle manager bounded under currency churn" `Quick
            test_idle_manager_bounded_under_currency_churn;
          Alcotest.test_case "a seat on a thread currency reaches both" `Quick
            test_thread_currency_seat_reaches_both;
          QCheck_alcotest.to_alcotest qcheck_managers_track_funding;
        ] );
    ]
