(* Handle arenas (the flat-table entity representation): Slots allocator
   unit tests, the Vec registry, and the recycling/ABA properties across
   every arena consumer — kernel thread table, funding currency/ticket
   tables, draw structures — under randomized create/kill/block/wake
   churn. *)

module Slots = Core.Arena.Slots
module Vec = Core.Arena.Vec
module F = Core.Funding

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* --- Slots: the allocator itself --------------------------------------- *)

let test_slots_basics () =
  let t = Slots.create () in
  let a = Slots.alloc t and b = Slots.alloc t and c = Slots.alloc t in
  checki "dense handles" 0 a;
  checki "dense handles" 1 b;
  checki "dense handles" 2 c;
  checki "live count" 3 (Slots.live_count t);
  checki "high-water mark" 3 (Slots.used t);
  List.iter
    (fun s ->
      checkb "live slot" true (Slots.is_live t s);
      checki "live generation is odd" 1 (Slots.gen t s land 1))
    [ a; b; c ];
  Slots.release t b;
  checkb "released slot is vacant" false (Slots.is_live t b);
  checki "vacant generation is even" 0 (Slots.gen t b land 1);
  checki "live count after release" 2 (Slots.live_count t);
  (* most recently vacated slot is recycled first *)
  let d = Slots.alloc t in
  checki "LIFO recycling" b d;
  checkb "recycled slot is live" true (Slots.is_live t d);
  checki "high-water mark unchanged by recycling" 3 (Slots.used t);
  (* deeper LIFO: release two, get them back in reverse order *)
  Slots.release t a;
  Slots.release t c;
  checki "LIFO recycling" c (Slots.alloc t);
  checki "LIFO recycling" a (Slots.alloc t)

let test_slots_generation_aba () =
  let t = Slots.create () in
  let s = Slots.alloc t in
  let g0 = Slots.gen t s in
  (* a (slot, gen) pair captured live never matches any later occupant *)
  let seen = ref [ g0 ] in
  for _ = 1 to 10 do
    Slots.release t s;
    let s' = Slots.alloc t in
    checki "same slot recycled" s s';
    let g = Slots.gen t s in
    checki "recycled generation is odd" 1 (g land 1);
    checkb "generation never repeats" false (List.mem g !seen);
    seen := g :: !seen
  done

let test_slots_creation_order () =
  let t = Slots.create () in
  let order () = List.rev (Slots.fold_live t ~init:[] ~f:(fun acc s -> s :: acc)) in
  let a = Slots.alloc t and b = Slots.alloc t and c = Slots.alloc t in
  Alcotest.(check (list int)) "initial order" [ a; b; c ] (order ());
  Slots.release t b;
  Alcotest.(check (list int)) "order after release" [ a; c ] (order ());
  (* the recycled slot re-enters at the TAIL: creation order, not slot order *)
  let d = Slots.alloc t in
  checki "b's slot recycled" b d;
  Alcotest.(check (list int)) "recycled slot at tail" [ a; c; d ] (order ());
  let iter_order = ref [] in
  Slots.iter_live t (fun s -> iter_order := s :: !iter_order);
  Alcotest.(check (list int)) "iter_live matches fold_live" [ a; c; d ]
    (List.rev !iter_order)

let test_slots_release_during_iteration () =
  let t = Slots.create () in
  let slots = List.init 20 (fun _ -> Slots.alloc t) in
  let visited = ref [] in
  Slots.iter_live t (fun s ->
      visited := s :: !visited;
      Slots.release t s);
  Alcotest.(check (list int)) "all slots visited in creation order" slots
    (List.rev !visited);
  checki "all released" 0 (Slots.live_count t);
  checkb "none live" false (Slots.exists_live t (fun _ -> true))

let test_slots_grow_payload () =
  let t = Slots.create ~initial_capacity:2 () in
  let payload = ref [||] in
  let put s v =
    payload := Slots.grow_payload t !payload ~dummy:v;
    !payload.(s) <- v
  in
  for i = 0 to 99 do
    let s = Slots.alloc t in
    put s (i * 10)
  done;
  checkb "payload covers capacity" true
    (Array.length !payload >= Slots.capacity t);
  (* existing cells survived every growth step *)
  Slots.iter_live t (fun s -> checki "payload preserved" (s * 10) !payload.(s));
  (* a long-enough array is returned untouched *)
  let before = !payload in
  checkb "no copy when already covering" true
    (before == Slots.grow_payload t before ~dummy:0)

let test_slots_errors () =
  let t = Slots.create () in
  let s = Slots.alloc t in
  Slots.release t s;
  checkb "double release rejected" true
    (match Slots.release t s with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "release of never-allocated slot rejected" true
    (match Slots.release t 7 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- Vec: the append-only registry ------------------------------------- *)

let test_vec () =
  let v = Vec.create () in
  checki "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  checki "length" 100 (Vec.length v);
  checki "index" 49 (Vec.get v 7 * 0 + 49);
  checki "index" (9 * 9) (Vec.get v 9);
  let sum = Vec.fold_left v ~init:0 ~f:( + ) in
  let expect = List.fold_left ( + ) 0 (List.init 100 (fun i -> i * i)) in
  checki "fold over all" expect sum;
  checkb "exists" true (Vec.exists v (fun x -> x = 81));
  checkb "exists" false (Vec.exists v (fun x -> x = 83));
  let order = ref [] in
  Vec.iter v (fun x -> order := x :: !order);
  Alcotest.(check (list int)) "iteration in push order"
    (List.init 100 (fun i -> i * i))
    (List.rev !order);
  Alcotest.(check (list int)) "to_list in push order"
    (List.init 100 (fun i -> i * i))
    (Vec.to_list v);
  checkb "out of bounds rejected" true
    (match Vec.get v 100 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- Draw structures: stale handles are inert -------------------------- *)

let test_draw_recycling mode () =
  let d = Core.Draw.of_mode mode in
  let hs = Array.init 8 (fun i -> Core.Draw.add d ~client:i ~weight:(float_of_int (i + 1))) in
  checki "size" 8 (Core.Draw.size d);
  checkf "total" 36. (Core.Draw.total d);
  Core.Draw.remove d hs.(3);
  checki "size after remove" 7 (Core.Draw.size d);
  checkf "total after remove" 32. (Core.Draw.total d);
  Core.Draw.remove d hs.(3);
  checki "stale remove is idempotent" 7 (Core.Draw.size d);
  (* the vacated slot is recycled for the next client; the stale handle
     must stay inert — removing it again must NOT evict the new occupant *)
  let h = Core.Draw.add d ~client:99 ~weight:4. in
  checki "size after recycling add" 8 (Core.Draw.size d);
  checkf "total after recycling add" 36. (Core.Draw.total d);
  Core.Draw.remove d hs.(3);
  checki "stale remove leaves the new occupant" 8 (Core.Draw.size d);
  checkf "stale remove leaves the weight" 36. (Core.Draw.total d);
  checkf "stale weight reads as zero" 0. (Core.Draw.weight d hs.(3));
  checkf "live weight reads through" 4. (Core.Draw.weight d h);
  Core.Draw.set_weight d h 8.;
  checkf "new handle updates" 8. (Core.Draw.weight d h);
  (* every live client is reachable by a deterministic sweep *)
  let winners = Hashtbl.create 8 in
  let total = Core.Draw.total d in
  let steps = 400 in
  for i = 0 to steps - 1 do
    match Core.Draw.draw_with_value d ~winning:(float_of_int i *. total /. float_of_int steps) with
    | Some w -> Hashtbl.replace winners (Core.Draw.client w) ()
    | None -> Alcotest.fail "draw_with_value returned no winner"
  done;
  checki "all live clients win some interval" 8 (Hashtbl.length winners);
  checkb "removed client never wins" false (Hashtbl.mem winners 3)

let test_tree_stale_set_weight () =
  let t = Core.Tree_lottery.create () in
  let h = Core.Tree_lottery.add t ~client:"x" ~weight:1. in
  Core.Tree_lottery.remove t h;
  checkb "stale handle is not a member" false (Core.Tree_lottery.mem t h);
  Alcotest.check_raises "set_weight on a stale handle"
    (Invalid_argument "Tree_lottery.set_weight: removed handle") (fun () ->
      Core.Tree_lottery.set_weight t h 2.)

(* --- Kernel thread table: randomized create/kill/block/wake churn ------- *)

(* The tentpole safety property: a (slot, generation) pair captured while a
   thread is live never matches any later occupant of its recycled slot,
   and reaped threads read back as (-1, -1). Random operation sequences
   against the real kernel + tree scheduler, funding included so every kill
   also recycles currency and ticket slots. *)
let qcheck_kernel_handle_recycling =
  let module Rng = Core.Rng in
  QCheck.Test.make
    ~name:"kernel (slot, generation) handles are ABA-safe across recycling"
    ~count:1000 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed () in
      let srng = Rng.create ~algo:Splitmix64 ~seed:(seed + 1) () in
      let ls =
        Core.Lottery_sched.create ~mode:Core.Lottery_sched.Tree_mode ~rng:srng ()
      in
      let s = Core.Lottery_sched.sched ls in
      let k = Core.Kernel.create ~sched:s () in
      let base = Core.Lottery_sched.base_currency ls in
      (* model: (thread, slot, gen, blocked-by-us) for every live thread,
         and every (slot, gen) pair we ever captured for a killed one *)
      let live = ref [] in
      let dead = ref [] in
      let counter = ref 0 in
      let ok = ref true in
      let expect msg b = if not b then (ok := false; print_endline ("FAIL " ^ msg)) in
      let spawn () =
        incr counter;
        let th =
          Core.Kernel.spawn k ~name:(Printf.sprintf "h%d" !counter) (fun () ->
              while true do
                Core.Api.compute (Core.Time.ms 10)
              done)
        in
        ignore
          (Core.Lottery_sched.fund_thread ls th
             ~amount:(1 + Rng.int_below rng 300) ~from:base);
        let slot = Core.Kernel.thread_slot th in
        let gen = Core.Kernel.thread_generation k th in
        expect "live slot is nonnegative" (slot >= 0);
        expect "live generation is odd" (gen land 1 = 1);
        List.iter
          (fun (ds, dg) -> expect "dead handle never resurrected" (not (ds = slot && dg = gen)))
          !dead;
        live := (th, slot, gen, ref false) :: !live
      in
      let pick () =
        let arr = Array.of_list !live in
        arr.(Rng.int_below rng (Array.length arr))
      in
      spawn ();
      for _ = 1 to 59 do
        match Rng.int_below rng 10 with
        | 0 | 1 | 2 -> spawn ()
        | 3 | 4 when List.length !live > 1 ->
            let th, slot, gen, blocked = pick () in
            if !blocked then begin
              s.Core.Types.ready th;
              ignore (s.Core.Types.select ~cpu:0)
            end;
            Core.Kernel.kill k th;
            expect "reaped slot reads -1" (Core.Kernel.thread_slot th = -1);
            expect "reaped generation reads -1"
              (Core.Kernel.thread_generation k th = -1);
            dead := (slot, gen) :: !dead;
            live := List.filter (fun (t, _, _, _) -> not (t == th)) !live
        | 5 | 6 ->
            let _, _, _, blocked = pick () in
            if not !blocked then begin
              let th, _, _, _ =
                List.find (fun (_, _, _, b) -> b == blocked) !live
              in
              s.Core.Types.unready th;
              ignore (s.Core.Types.select ~cpu:0);
              blocked := true
            end
        | 7 | 8 -> (
            match List.find_opt (fun (_, _, _, b) -> !b) !live with
            | Some (th, _, _, blocked) ->
                s.Core.Types.ready th;
                ignore (s.Core.Types.select ~cpu:0);
                blocked := false
            | None -> ())
        | _ ->
            if List.exists (fun (_, _, _, b) -> not !b) !live then
              ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 10))
      done;
      (* the model and the kernel agree; the audit passes; every live
         occupant of a recycled slot carries a fresh generation *)
      expect "live count matches model"
        (Core.Kernel.live_thread_count k = List.length !live);
      expect "kernel audit is clean" (Core.Kernel.check_invariants k = []);
      List.iter
        (fun (th, slot, gen, _) ->
          expect "model slot still current" (Core.Kernel.thread_slot th = slot);
          expect "model generation still current"
            (Core.Kernel.thread_generation k th = gen);
          List.iter
            (fun (ds, dg) ->
              expect "live handle distinct from every dead capture"
                (not (ds = slot && dg = gen)))
            !dead)
        !live;
      !ok)

(* --- Funding arenas: recycling + exact valuation ------------------------ *)

(* From-scratch valuation mirroring the cached arithmetic
   operation-for-operation (same fold order, same divisions), as in
   test_funding — agreement is exact, not approximate. *)
let scratch_value sys root =
  let memo = Hashtbl.create 16 in
  let rec unit c =
    if F.is_base c then 1.
    else if F.active_amount sys c = 0 then 0.
    else
      match Hashtbl.find_opt memo (F.currency_id c) with
      | Some x -> x
      | None ->
          Hashtbl.replace memo (F.currency_id c) 0.;
          let x = value c /. float_of_int (F.active_amount sys c) in
          Hashtbl.replace memo (F.currency_id c) x;
          x
  and value c =
    if F.is_base c then float_of_int (F.active_amount sys c)
    else
      List.fold_left
        (fun acc t ->
          if F.is_active sys t then
            acc +. (float_of_int (F.amount sys t) *. unit (F.denomination t))
          else acc)
        0. (F.backing_tickets sys c)
  in
  value root

(* test_funding's randomized suites never remove currencies, so slot
   recycling in the currency/ticket arenas is exercised here: random
   graph mutation interleaved with remove_currency/destroy_ticket, with
   the incremental caches checked against a from-scratch walk after every
   recycling step. *)
let qcheck_funding_recycling_valuation =
  let module Rng = Core.Rng in
  QCheck.Test.make
    ~name:"valuation stays exact across currency/ticket slot recycling"
    ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed:(seed + 31) () in
      let sys = F.create_system () in
      let base = F.base sys in
      let currencies = ref [ base ] in
      let tickets = ref [] in
      let dead_cur = ref [] in
      let dead_tk = ref [] in
      let ok = ref true in
      let expect msg b = if not b then (ok := false; print_endline ("FAIL " ^ msg)) in
      let fresh_ticket t =
        let slot = F.ticket_slot t and gen = F.ticket_generation sys t in
        expect "live ticket slot nonnegative" (slot >= 0);
        List.iter
          (fun (ds, dg) ->
            expect "destroyed ticket handle never resurrected"
              (not (ds = slot && dg = gen)))
          !dead_tk
      in
      for i = 0 to 79 do
        (match Rng.int_below rng 10 with
        | 0 | 1 ->
            (* funded currency: new currency + ticket slots (recycled ones
               must come back under fresh generations) *)
            let from = Rng.choose rng (Array.of_list !currencies) in
            let c = F.make_currency sys ~name:(Printf.sprintf "a%d-%d" seed i) in
            let slot = F.currency_slot c and gen = F.currency_generation sys c in
            List.iter
              (fun (ds, dg) ->
                expect "removed currency handle never resurrected"
                  (not (ds = slot && dg = gen)))
              !dead_cur;
            let t = F.issue sys ~currency:from ~amount:(1 + Rng.int_below rng 300) in
            fresh_ticket t;
            F.fund sys ~ticket:t ~currency:c;
            tickets := t :: !tickets;
            currencies := c :: !currencies
        | 2 | 3 ->
            let denom = Rng.choose rng (Array.of_list !currencies) in
            let t = F.issue sys ~currency:denom ~amount:(Rng.int_below rng 200) in
            fresh_ticket t;
            if Rng.bool rng then F.hold sys t;
            tickets := t :: !tickets
        | 4 | 5 when !tickets <> [] ->
            let t = Rng.choose rng (Array.of_list !tickets) in
            let slot = F.ticket_slot t and gen = F.ticket_generation sys t in
            F.destroy_ticket sys t;
            expect "destroyed ticket slot reads -1" (F.ticket_slot t = -1);
            expect "destroyed ticket generation reads -1"
              (F.ticket_generation sys t = -1);
            dead_tk := (slot, gen) :: !dead_tk;
            tickets := List.filter (fun t' -> not (t' == t)) !tickets
        | 6 -> (
            (* remove a currency once its edges are gone: this is the slot
               recycling no other suite reaches *)
            match
              List.find_opt
                (fun c ->
                  (not (F.is_base c))
                  && F.issued_tickets sys c = []
                  && F.backing_tickets sys c = [])
                !currencies
            with
            | Some c ->
                let slot = F.currency_slot c in
                let gen = F.currency_generation sys c in
                F.remove_currency sys c;
                expect "removed currency slot reads -1" (F.currency_slot c = -1);
                expect "removed currency generation reads -1"
                  (F.currency_generation sys c = -1);
                dead_cur := (slot, gen) :: !dead_cur;
                currencies := List.filter (fun c' -> not (c' == c)) !currencies
            | None -> ())
        | 7 when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            try if Rng.bool rng then F.suspend sys t else F.resume sys t
            with Invalid_argument _ -> ())
        | 8 when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            try F.set_amount sys t (Rng.int_below rng 250)
            with Invalid_argument _ -> ())
        | _ when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            let c = Rng.choose rng (Array.of_list !currencies) in
            try F.fund sys ~ticket:t ~currency:c
            with F.Cycle _ | Invalid_argument _ -> ())
        | _ -> ());
        F.check_invariants sys;
        (* incremental caches = from-scratch walk, bit for bit, after every
           mutation (including the recycling ones) *)
        List.iter
          (fun c ->
            expect "cached value exact" (F.currency_value sys c = scratch_value sys c))
          (F.currencies sys)
      done;
      expect "live currency count matches"
        (F.live_currency_count sys = List.length !currencies);
      !ok)

(* --- kill-heavy audit: O(live) sweep stays clean ------------------------ *)

(* Most threads die; the audit must pass over the survivors without
   tripping on recycled slots (the dead outnumber the living 5:1, so any
   audit path that still walks dead history would surface here; the 10^5
   timing claim is covered by the scale smoke below). *)
let test_kill_heavy_audit () =
  let rng = Core.Rng.create ~seed:11 () in
  let ls = Core.Lottery_sched.create ~mode:Core.Lottery_sched.Tree_mode ~rng () in
  let k = Core.Kernel.create ~sched:(Core.Lottery_sched.sched ls) () in
  let base = Core.Lottery_sched.base_currency ls in
  let threads =
    Array.init 300 (fun i ->
        let th =
          Core.Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun () ->
              while true do
                Core.Api.compute (Core.Time.ms 10)
              done)
        in
        ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base);
        th)
  in
  ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100));
  for i = 0 to 249 do
    Core.Kernel.kill k threads.(i)
  done;
  ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.ms 100));
  checki "survivors" 50 (Core.Kernel.live_thread_count k);
  Alcotest.(check (list string)) "kernel audit clean" []
    (Core.Kernel.check_invariants k);
  Alcotest.(check (list string)) "funding coherence clean" []
    (Core.Lottery_sched.check_funding_coherence ls (Core.Kernel.threads k));
  (* survivors keep scheduling: the whole population accrues cpu *)
  let total () =
    List.fold_left
      (fun acc th -> acc + Core.Kernel.cpu_time th)
      0 (Core.Kernel.threads k)
  in
  let before = total () in
  ignore (Core.Kernel.run k ~until:(Core.Kernel.now k + Core.Time.seconds 2));
  checkb "survivors accumulate cpu" true (total () > before)

(* The scale smoke: 10^5 threads created and funded, 20 kernel quanta,
   50,000 block/wake cycles with a draw per transition, then 10^4 kills and
   as many respawns into the recycled slots, and the O(live) audit. It takes
   about a second; a per-slice path that turned O(n) would make it take
   minutes, which CI's test-step timeout catches. *)
let test_scale_smoke () =
  let n = 100_000 and t0 = Unix.gettimeofday () in
  let k, ls = Fixtures.lottery_kernel ~mode:Core.Lottery_sched.Tree_mode ~seed:3 () in
  let s = Core.Lottery_sched.sched ls and base = Core.Lottery_sched.base_currency ls in
  let spin name = Fixtures.spin ~q:(Core.Time.ms 100) k name in
  let threads =
    Array.init n (fun i ->
        let th = spin (Printf.sprintf "t%d" i) in
        ignore (Core.Lottery_sched.fund_thread ls th ~amount:100 ~from:base);
        th)
  in
  ignore (Core.Kernel.run k ~until:(Core.Time.ms 2_000));
  for i = 0 to 49_999 do
    let th = threads.(i * 37 mod n) in
    s.unready th;
    ignore (s.select ~cpu:0);
    s.ready th;
    ignore (s.select ~cpu:0)
  done;
  for i = 0 to 9_999 do
    Core.Kernel.kill k threads.(i)
  done;
  for i = 0 to 9_999 do
    ignore (spin (Printf.sprintf "r%d" i))
  done;
  checki "live threads" n (Core.Kernel.live_thread_count k);
  Alcotest.(check (list string)) "kernel audit clean" [] (Core.Kernel.check_invariants k);
  Printf.printf "scale smoke: %.2f s\n" (Unix.gettimeofday () -. t0)

let () =
  Alcotest.run "arena"
    [
      ( "slots",
        [
          Alcotest.test_case "alloc/release/LIFO recycling" `Quick
            test_slots_basics;
          Alcotest.test_case "generations never repeat (ABA)" `Quick
            test_slots_generation_aba;
          Alcotest.test_case "creation-order iteration" `Quick
            test_slots_creation_order;
          Alcotest.test_case "release during iteration" `Quick
            test_slots_release_during_iteration;
          Alcotest.test_case "grow_payload" `Quick test_slots_grow_payload;
          Alcotest.test_case "misuse raises" `Quick test_slots_errors;
        ] );
      ("vec", [ Alcotest.test_case "registry basics" `Quick test_vec ]);
      ( "draw",
        [
          Alcotest.test_case "tree: stale handles are inert" `Quick
            (test_draw_recycling Core.Draw.Tree);
          Alcotest.test_case "list: stale handles are inert" `Quick
            (test_draw_recycling Core.Draw.List);
          Alcotest.test_case "tree: stale set_weight raises" `Quick
            test_tree_stale_set_weight;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "kill-heavy audit over recycled slots" `Quick
            test_kill_heavy_audit;
          Alcotest.test_case "scale smoke: 10^5 threads" `Quick test_scale_smoke;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_kernel_handle_recycling;
            qcheck_funding_recycling_valuation;
          ] );
    ]
