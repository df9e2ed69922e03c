(* Tickets & currencies: valuation (paper Figure 3), activation propagation
   (§4.4), inflation (§3.2), acyclicity, lifecycle, and randomized invariant
   checks. *)

module F = Core.Funding

let check = Alcotest.check
let checkf msg = check (Alcotest.float 1e-9) msg
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* Build the paper's Figure 3 graph:
   base -> alice (1000.base), bob (2000.base)
   alice -> task1 (100.alice, inactive), task2 (200.alice)
   bob -> task3 (100.bob)
   task2 issues thread2=200, thread3=300 (held); task3 issues thread4=100. *)
let figure3 () =
  let sys = F.create_system () in
  let base = F.base sys in
  let mk name ~from ~amount =
    let c = F.make_currency sys ~name in
    let t = F.issue sys ~currency:from ~amount in
    F.fund sys ~ticket:t ~currency:c;
    c
  in
  let alice = mk "alice" ~from:base ~amount:1000 in
  let bob = mk "bob" ~from:base ~amount:2000 in
  let task1 = mk "task1" ~from:alice ~amount:100 in
  let task2 = mk "task2" ~from:alice ~amount:200 in
  let task3 = mk "task3" ~from:bob ~amount:100 in
  let hold c amount =
    let t = F.issue sys ~currency:c ~amount in
    F.hold sys t;
    t
  in
  let thread1 = F.issue sys ~currency:task1 ~amount:100 in
  let thread2 = hold task2 200 in
  let thread3 = hold task2 300 in
  let thread4 = hold task3 100 in
  (sys, base, alice, bob, task1, task2, task3, thread1, thread2, thread3, thread4)

let test_figure3_values () =
  let sys, _, alice, bob, task1, task2, task3, _t1, t2, t3, t4 = figure3 () in
  F.check_invariants sys;
  checkf "thread2 = 400" 400. (F.ticket_value sys t2);
  checkf "thread3 = 600" 600. (F.ticket_value sys t3);
  checkf "thread4 = 2000" 2000. (F.ticket_value sys t4);
  checkf "task2 currency = 1000" 1000. (F.currency_value sys task2);
  checkf "task3 currency = 2000" 2000. (F.currency_value sys task3);
  (* task1 is inactive: its backing ticket is inactive and alice's active
     amount only counts the task2 allocation *)
  checki "alice active amount" 200 (F.active_amount sys alice);
  checki "bob active amount" 100 (F.active_amount sys bob);
  checkf "task1 value 0 while inactive" 0. (F.currency_value sys task1)

let test_figure3_task1_wakes () =
  let sys, _, alice, _, _task1, _, _, thread1, t2, _, _ = figure3 () in
  (* thread1 starts competing: task1 activates and dilutes alice *)
  F.hold sys thread1;
  F.check_invariants sys;
  checki "alice active amount" 300 (F.active_amount sys alice);
  checkf "thread2 drops to (1000*200/300)*(200/500)" (2000. /. 3. *. 0.4)
    (F.ticket_value sys t2);
  checkf "thread1 now worth its task1 share" (1000. /. 3.)
    (F.ticket_value sys thread1);
  (* and back *)
  F.suspend sys thread1;
  F.check_invariants sys;
  checki "alice active amount restored" 200 (F.active_amount sys alice);
  checkf "thread2 restored" 400. (F.ticket_value sys t2)

let test_base_valuation () =
  let sys = F.create_system () in
  let t = F.issue sys ~currency:(F.base sys) ~amount:123 in
  F.hold sys t;
  checkf "base ticket is face value" 123. (F.ticket_value sys t);
  F.suspend sys t;
  checkf "inactive ticket is worthless" 0. (F.ticket_value sys t)

let test_activation_propagation_chain () =
  (* base -> a -> b -> c, client at the bottom: activity of the whole chain
     follows the single held ticket *)
  let sys = F.create_system () in
  let base = F.base sys in
  let mk name from amount =
    let c = F.make_currency sys ~name in
    let t = F.issue sys ~currency:from ~amount in
    F.fund sys ~ticket:t ~currency:c;
    (c, t)
  in
  let a, ta = mk "a" base 100 in
  let b, tb = mk "b" a 10 in
  let c, tc = mk "c" b 10 in
  let held = F.issue sys ~currency:c ~amount:1 in
  checkb "backing inactive before any client" false (F.is_active sys ta);
  F.hold sys held;
  F.check_invariants sys;
  checkb "ta active" true (F.is_active sys ta);
  checkb "tb active" true (F.is_active sys tb);
  checkb "tc active" true (F.is_active sys tc);
  checkf "full value flows down" 100. (F.ticket_value sys held);
  F.suspend sys held;
  F.check_invariants sys;
  checkb "ta inactive again" false (F.is_active sys ta);
  checkb "tb inactive again" false (F.is_active sys tb);
  checki "a active amount" 0 (F.active_amount sys a);
  F.resume sys held;
  checkb "reactivates" true (F.is_active sys ta)

let test_sibling_share_shift () =
  (* two clients in one currency: one blocking doubles the other's value *)
  let sys = F.create_system () in
  let base = F.base sys in
  let cur = F.make_currency sys ~name:"users" in
  let t = F.issue sys ~currency:base ~amount:600 in
  F.fund sys ~ticket:t ~currency:cur;
  let c1 = F.issue sys ~currency:cur ~amount:100 in
  let c2 = F.issue sys ~currency:cur ~amount:200 in
  F.hold sys c1;
  F.hold sys c2;
  checkf "c1 share" 200. (F.ticket_value sys c1);
  checkf "c2 share" 400. (F.ticket_value sys c2);
  F.suspend sys c2;
  checkf "c1 absorbs full value" 600. (F.ticket_value sys c1);
  checkf "c2 worthless while suspended" 0. (F.ticket_value sys c2)

let test_inflation_contained () =
  (* paper §3.2/§5.5: inflation inside one currency must not leak out *)
  let sys = F.create_system () in
  let base = F.base sys in
  let mk name =
    let c = F.make_currency sys ~name in
    let t = F.issue sys ~currency:base ~amount:1000 in
    F.fund sys ~ticket:t ~currency:c;
    c
  in
  let a = mk "a" and b = mk "b" in
  let a1 = F.issue sys ~currency:a ~amount:100 in
  let b1 = F.issue sys ~currency:b ~amount:100 in
  F.hold sys a1;
  F.hold sys b1;
  checkf "a1 before" 1000. (F.ticket_value sys a1);
  (* b inflates: issue 300 more inside b *)
  let b2 = F.issue sys ~currency:b ~amount:300 in
  F.hold sys b2;
  F.check_invariants sys;
  checkf "a1 unchanged by b's inflation" 1000. (F.ticket_value sys a1);
  checkf "b1 diluted 4x" 250. (F.ticket_value sys b1);
  checkf "b2 gets the rest" 750. (F.ticket_value sys b2)

let test_set_amount () =
  let sys = F.create_system () in
  let base = F.base sys in
  let t = F.issue sys ~currency:base ~amount:100 in
  F.hold sys t;
  checki "active amount" 100 (F.active_amount sys base);
  F.set_amount sys t 250;
  checki "inflated" 250 (F.active_amount sys base);
  checki "ticket amount" 250 (F.amount sys t);
  F.set_amount sys t 0;
  checki "deflated to zero" 0 (F.active_amount sys base);
  F.set_amount sys t 10;
  checki "re-inflated" 10 (F.active_amount sys base);
  F.check_invariants sys;
  Alcotest.check_raises "negative" (Invalid_argument "Funding.set_amount: negative amount")
    (fun () -> F.set_amount sys t (-1))

let test_set_amount_zero_crossing_propagates () =
  (* deflating a currency's only active ticket to zero must deactivate its
     backing tickets, and back *)
  let sys = F.create_system () in
  let base = F.base sys in
  let c = F.make_currency sys ~name:"c" in
  let backing = F.issue sys ~currency:base ~amount:50 in
  F.fund sys ~ticket:backing ~currency:c;
  let held = F.issue sys ~currency:c ~amount:10 in
  F.hold sys held;
  checkb "backing active" true (F.is_active sys backing);
  F.set_amount sys held 0;
  F.check_invariants sys;
  checkb "backing deactivated on zero" false (F.is_active sys backing);
  F.set_amount sys held 5;
  F.check_invariants sys;
  checkb "backing reactivated" true (F.is_active sys backing)

let test_cycle_rejected () =
  let sys = F.create_system () in
  let a = F.make_currency sys ~name:"a" in
  let b = F.make_currency sys ~name:"b" in
  let t_ab = F.issue sys ~currency:a ~amount:10 in
  F.fund sys ~ticket:t_ab ~currency:b;
  (* now b depends on a; funding a with a b-denominated ticket is a cycle *)
  let t_ba = F.issue sys ~currency:b ~amount:10 in
  checkb "cycle raises" true
    (match F.fund sys ~ticket:t_ba ~currency:a with
    | () -> false
    | exception F.Cycle _ -> true);
  (* self-funding is rejected outright *)
  let t_aa = F.issue sys ~currency:a ~amount:1 in
  checkb "self-funding rejected" true
    (match F.fund sys ~ticket:t_aa ~currency:a with
    | () -> false
    | exception Invalid_argument _ -> true);
  F.check_invariants sys

let test_deep_cycle_rejected () =
  let sys = F.create_system () in
  let names = [ "c1"; "c2"; "c3"; "c4" ] in
  let curs = List.map (fun name -> F.make_currency sys ~name) names in
  let rec chain = function
    | a :: (b :: _ as rest) ->
        let t = F.issue sys ~currency:a ~amount:1 in
        F.fund sys ~ticket:t ~currency:b;
        chain rest
    | _ -> ()
  in
  chain curs;
  let c1 = List.hd curs and c4 = List.nth curs 3 in
  let t = F.issue sys ~currency:c4 ~amount:1 in
  checkb "long cycle rejected" true
    (match F.fund sys ~ticket:t ~currency:c1 with
    | () -> false
    | exception F.Cycle _ -> true)

let test_duplicate_names () =
  let sys = F.create_system () in
  ignore (F.make_currency sys ~name:"x");
  checkb "duplicate" true
    (match F.make_currency sys ~name:"x" with
    | _ -> false
    | exception F.Duplicate_name "x" -> true);
  checkb "base reserved" true
    (match F.make_currency sys ~name:"base" with
    | _ -> false
    | exception F.Duplicate_name _ -> true)

let test_find_and_list () =
  let sys = F.create_system () in
  let a = F.make_currency sys ~name:"a" in
  checkb "find a" true
    (match F.find_currency sys "a" with Some c -> c == a | None -> false);
  checkb "find missing" true (F.find_currency sys "zz" = None);
  checki "currencies incl. base" 2 (List.length (F.currencies sys));
  checkb "base first" true (F.is_base (List.hd (F.currencies sys)))

let test_remove_currency () =
  let sys = F.create_system () in
  let a = F.make_currency sys ~name:"a" in
  let t = F.issue sys ~currency:(F.base sys) ~amount:5 in
  F.fund sys ~ticket:t ~currency:a;
  checkb "in use (backing)" true
    (match F.remove_currency sys a with
    | () -> false
    | exception F.In_use _ -> true);
  F.unfund sys t;
  let issued = F.issue sys ~currency:a ~amount:5 in
  checkb "in use (issued)" true
    (match F.remove_currency sys a with
    | () -> false
    | exception F.In_use _ -> true);
  F.destroy_ticket sys issued;
  F.remove_currency sys a;
  checkb "gone" true (F.find_currency sys "a" = None);
  checkb "base protected" true
    (match F.remove_currency sys (F.base sys) with
    | () -> false
    | exception F.In_use _ -> true)

let test_destroy_ticket_everywhere () =
  let sys = F.create_system () in
  let base = F.base sys in
  let c = F.make_currency sys ~name:"c" in
  (* backing ticket *)
  let t1 = F.issue sys ~currency:base ~amount:10 in
  F.fund sys ~ticket:t1 ~currency:c;
  (* held ticket *)
  let t2 = F.issue sys ~currency:c ~amount:4 in
  F.hold sys t2;
  (* unattached *)
  let t3 = F.issue sys ~currency:c ~amount:4 in
  F.destroy_ticket sys t2;
  F.destroy_ticket sys t1;
  F.destroy_ticket sys t3;
  F.check_invariants sys;
  checki "no backing left" 0 (List.length (F.backing_tickets sys c));
  checki "no issued left" 0 (List.length (F.issued_tickets sys c));
  checkb "destroyed ticket unusable" true
    (match F.hold sys t2 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_lifecycle_errors () =
  let sys = F.create_system () in
  let t = F.issue sys ~currency:(F.base sys) ~amount:1 in
  Alcotest.check_raises "suspend unheld" (Invalid_argument "Funding.suspend: ticket not held")
    (fun () -> F.suspend sys t);
  Alcotest.check_raises "unfund unattached" (Invalid_argument "Funding.unfund: ticket not backing")
    (fun () -> F.unfund sys t);
  let c = F.make_currency sys ~name:"c" in
  F.fund sys ~ticket:t ~currency:c;
  Alcotest.check_raises "hold a backing ticket"
    (Invalid_argument "Funding.hold: ticket is backing a currency") (fun () ->
      F.hold sys t);
  checkb "negative issue rejected" true
    (match F.issue sys ~currency:c ~amount:(-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Money conservation: value flows through the graph without being created.
   The total base-unit value held by competing tickets can never exceed the
   base currency's active amount, and equals it exactly when every funding
   chain terminates in an active holder. *)
let qcheck_value_conservation =
  let module Rng = Core.Rng in
  QCheck.Test.make ~name:"held value never exceeds (and in trees equals) base value"
    ~count:80 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed () in
      let sys = F.create_system () in
      let base = F.base sys in
      (* random tree of currencies, each funded from an earlier one *)
      let currencies = ref [| base |] in
      let n_cur = 1 + Rng.int_below rng 6 in
      for i = 0 to n_cur - 1 do
        let from = Rng.choose rng !currencies in
        let c = F.make_currency sys ~name:(Printf.sprintf "c%d" i) in
        let t = F.issue sys ~currency:from ~amount:(1 + Rng.int_below rng 500) in
        F.fund sys ~ticket:t ~currency:c;
        currencies := Array.append !currencies [| c |]
      done;
      (* one active holder per currency: every chain terminates actively *)
      let held =
        Array.to_list !currencies
        |> List.filter (fun c -> not (F.is_base c))
        |> List.map (fun c ->
               let t = F.issue sys ~currency:c ~amount:(1 + Rng.int_below rng 100) in
               F.hold sys t;
               t)
      in
      (* plus some held base tickets *)
      let held =
        if Rng.bool rng then begin
          let t = F.issue sys ~currency:base ~amount:(1 + Rng.int_below rng 100) in
          F.hold sys t;
          t :: held
        end
        else held
      in
      F.check_invariants sys;
      let total_held =
        List.fold_left (fun acc t -> acc +. F.ticket_value sys t) 0. held
      in
      let base_active = float_of_int (F.active_amount sys base) in
      (* full equality in an all-active tree; suspend one holder and the
         total can only drop *)
      let equal_when_active = abs_float (total_held -. base_active) < 1e-6 in
      let still_bounded =
        match held with
        | first :: _ ->
            F.suspend sys first;
            let t2 =
              List.fold_left (fun acc t -> acc +. F.ticket_value sys t) 0. held
            in
            t2 <= float_of_int (F.active_amount sys base) +. 1e-6
        | [] -> true
      in
      equal_when_active && still_bounded)

(* Randomized operation sequences must never break the structural
   invariants. *)
let qcheck_random_ops_keep_invariants =
  let module Rng = Core.Rng in
  QCheck.Test.make ~name:"random funding operations preserve invariants" ~count:60
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed () in
      let sys = F.create_system () in
      let currencies = ref [ F.base sys ] in
      let tickets = ref [] in
      for i = 0 to 199 do
        (match Rng.int_below rng 8 with
        | 0 ->
            currencies :=
              F.make_currency sys ~name:(Printf.sprintf "c%d-%d" seed i) :: !currencies
        | 1 | 2 ->
            let denom = Rng.choose rng (Array.of_list !currencies) in
            tickets :=
              F.issue sys ~currency:denom ~amount:(Rng.int_below rng 100) :: !tickets
        | 3 when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            let c = Rng.choose rng (Array.of_list !currencies) in
            try F.fund sys ~ticket:t ~currency:c
            with F.Cycle _ | Invalid_argument _ -> ())
        | 4 when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            try F.hold sys t with Invalid_argument _ -> ())
        | 5 when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            try if Rng.bool rng then F.suspend sys t else F.resume sys t
            with Invalid_argument _ -> ())
        | 6 when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            try F.set_amount sys t (Rng.int_below rng 50)
            with Invalid_argument _ -> ())
        | 7 when !tickets <> [] ->
            let t = Rng.choose rng (Array.of_list !tickets) in
            (try F.destroy_ticket sys t with Invalid_argument _ -> ());
            tickets := List.filter (fun t' -> t' != t) !tickets
        | _ -> ());
        F.check_invariants sys
      done;
      true)

(* [fund]'s cycle check against a from-scratch reachability walk. Random
   funding DAGs (diamonds included) grow and shrink: whole currencies are
   retired with their tickets, so both currency and ticket slots are
   recycled under the check's visit marks. Each attempt to fund a currency
   [c] with a ticket denominated in [d] must raise [Cycle] exactly when
   [d] already depends on [c] through backing edges, and a refused attempt
   must change nothing: the invariants hold, no hook is called, and every
   valid cache keeps its value. *)
let depends_from_scratch sys ~from ~target =
  let seen = Hashtbl.create 16 in
  let rec walk c =
    F.currency_id c = F.currency_id target
    || (not (Hashtbl.mem seen (F.currency_id c)))
       && begin
            Hashtbl.add seen (F.currency_id c) ();
            List.exists (fun b -> walk (F.denomination b)) (F.backing_tickets sys c)
          end
  in
  walk from

let qcheck_cycle_check_matches_reachability =
  let module Rng = Core.Rng in
  QCheck.Test.make ~name:"fund refuses exactly the edges that close a cycle"
    ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed:(seed + 104729) () in
      let sys = F.create_system () in
      let currencies = ref [ F.base sys ] in
      let tickets = ref [] in
      let ok = ref true in
      (* every currency is watched, so a mutation that flips anything
         stale hands its queue a tag *)
      let q = F.queue sys in
      let watch c = F.watch c q ~tag:(F.currency_id c) in
      watch (F.base sys);
      let pick l = Rng.choose rng (Array.of_list l) in
      let caches () =
        List.map
          (fun c ->
            if F.cache_valid sys c then Some (F.currency_value sys c, F.unit_value sys c)
            else None)
          (F.currencies sys)
      in
      let attempt t c =
        let cyclic = depends_from_scratch sys ~from:(F.denomination t) ~target:c in
        let before = caches () and n0 = F.hook_calls sys in
        match F.fund sys ~ticket:t ~currency:c with
        | () -> if cyclic then ok := false
        | exception F.Cycle _ ->
            if not cyclic then ok := false;
            if F.hook_calls sys <> n0 || caches () <> before || F.funds sys t <> None then
              ok := false;
            F.check_invariants sys
      in
      let retire c =
        List.iter (F.destroy_ticket sys) (F.issued_tickets sys c);
        List.iter (F.destroy_ticket sys) (F.backing_tickets sys c);
        F.remove_currency sys c;
        currencies := List.filter (fun c' -> c' != c) !currencies;
        tickets := List.filter (fun t -> F.ticket_slot t >= 0) !tickets
      in
      for i = 0 to 299 do
        (match Rng.int_below rng 10 with
        | 0 | 1 ->
            let c = F.make_currency sys ~name:(Printf.sprintf "c%d" i) in
            watch c;
            currencies := c :: !currencies
        | 2 | 3 ->
            tickets :=
              F.issue sys ~currency:(pick !currencies) ~amount:(1 + Rng.int_below rng 50)
              :: !tickets
        | 4 | 5 | 6 -> (
            let unattached t = F.funds sys t = None && not (F.is_held sys t) in
            match List.filter unattached !tickets with
            | [] -> ()
            | free ->
                let t = pick free in
                let c = pick !currencies in
                if F.currency_id c <> F.currency_id (F.denomination t) then attempt t c)
        | 7 when !tickets <> [] -> (
            let t = pick !tickets in
            try if F.funds sys t = None then F.hold sys t else F.unfund sys t
            with Invalid_argument _ -> ())
        | 8 -> (
            match List.filter (fun c -> not (F.is_base c)) !currencies with
            | [] -> ()
            | cs -> retire (pick cs))
        | _ ->
            (* reads validate part of the graph, so refused funds meet a
               mix of valid and stale caches *)
            ignore (F.currency_value sys (pick !currencies) : float));
        F.check_invariants sys
      done;
      !ok)

(* From-scratch valuation through the public accessors only, bypassing the
   incremental caches. Mirrors the cached arithmetic operation-for-operation
   (same fold order over the backing list, same value/active division), so
   agreement below can be asserted with exact float equality. *)
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

let scratch_unit sys c =
  if F.is_base c then 1.
  else if F.active_amount sys c = 0 then 0.
  else scratch_value sys c /. float_of_int (F.active_amount sys c)

(* Tickets destroyed and currencies removed in the middle of a live graph,
   their slots reused by new ones: after every step the invariants hold
   (the flat slot tables against the edge lists, released slots reset),
   every currency's value and unit value equal a from-scratch valuation,
   and every destroyed ticket reads what it read when it was destroyed. *)
let test_slot_reuse_keeps_flat_state () =
  let sys = F.create_system () in
  let base = F.base sys in
  let dead = ref [] in
  let reads t =
    ( F.amount sys t,
      F.is_active sys t,
      F.funds sys t = None,
      F.is_held sys t,
      (F.ticket_slot t, F.ticket_generation sys t, F.ticket_value sys t) )
  in
  let step name =
    F.check_invariants sys;
    List.iter
      (fun c ->
        let what = Printf.sprintf "%s: %s" name (F.currency_name c) in
        checkb (what ^ " value") true (F.currency_value sys c = scratch_value sys c);
        checkb (what ^ " unit") true (F.unit_value sys c = scratch_unit sys c))
      (F.currencies sys);
    F.check_invariants sys;
    List.iter
      (fun (t, r) -> checkb (name ^ ": a destroyed ticket reads the same") true (reads t = r))
      !dead
  in
  let destroy name t =
    let amount = F.amount sys t and denom = F.denomination t in
    F.destroy_ticket sys t;
    checki (name ^ ": keeps its amount") amount (F.amount sys t);
    checkb (name ^ ": keeps its denomination") true (F.denomination t == denom);
    checkb (name ^ ": reads as detached") true
      (reads t = (amount, false, true, false, (-1, -1, 0.)));
    dead := (t, reads t) :: !dead;
    step name
  in
  let fund ~from ~amount c =
    let t = F.issue sys ~currency:from ~amount in
    F.fund sys ~ticket:t ~currency:c;
    t
  in
  let held ~from ~amount =
    let t = F.issue sys ~currency:from ~amount in
    F.hold sys t;
    t
  in
  let a = F.make_currency sys ~name:"a" in
  let b = F.make_currency sys ~name:"b" in
  let c = F.make_currency sys ~name:"c" in
  let _ta = fund ~from:base ~amount:100 a in
  let tb1 = fund ~from:a ~amount:50 b in
  let _tb2 = fund ~from:base ~amount:30 b in
  let tc = fund ~from:base ~amount:20 c in
  let h1 = held ~from:b ~amount:10 in
  let _h2 = held ~from:b ~amount:5 in
  let h3 = held ~from:c ~amount:7 in
  let _h4 = held ~from:a ~amount:3 in
  step "built";
  (* an active backing ticket in the middle of the graph *)
  destroy "a's ticket backing b" tb1;
  (* an active held ticket; its slot goes to the next issue *)
  let slot = F.ticket_slot h1 in
  destroy "held in b" h1;
  let h5 = held ~from:c ~amount:9 in
  checki "the freed ticket slot is reused" slot (F.ticket_slot h5);
  step "reissued into the freed slot";
  let tb3 = fund ~from:a ~amount:40 b in
  step "b funded from a again";
  (* empty c and remove it; its slot goes to the next currency *)
  let cslot = F.currency_slot c in
  destroy "held in c" h3;
  destroy "c's second held ticket" h5;
  destroy "c's backing" tc;
  F.remove_currency sys c;
  checki "a removed currency reads no active amount" 0 (F.active_amount sys c);
  checkb "nor a valid cache" false (F.cache_valid sys c);
  step "c removed";
  let d = F.make_currency sys ~name:"d" in
  checki "the freed currency slot is reused" cslot (F.currency_slot d);
  checki "with no active amount" 0 (F.active_amount sys d);
  checkb "and no valid cache" false (F.cache_valid sys d);
  step "d made";
  let td = fund ~from:b ~amount:8 d in
  let h6 = held ~from:d ~amount:2 in
  step "d funded from b and held";
  F.suspend sys h6;
  step "d's client suspended";
  F.resume sys h6;
  F.set_amount sys tb3 70;
  step "b's backing inflated";
  destroy "d's backing" td;
  destroy "d's client" h6;
  F.remove_currency sys d;
  step "d removed"

(* Reference for the flips of a mutation and the order a queue drains
   them in. The historical implementation built one change batch per
   notification as a cons list, prepending a currency at its valid ->
   stale flip while invalidation walked issued lists depth first, most
   recent ticket first; that newest-first order is the queue's order
   within a mutation. [predict] replays one mutation's activation cascade
   (paper §4.4) on a snapshot of the graph with that list walk and returns
   the batches, one per notification, each newest flip first (so the flip
   order is each batch reversed). Only currencies in [valid] can flip. The walk follows
   active edges only: an issued ticket that backs a currency is followed
   while it is active, and during its own deactivation's flip (the ticket
   is inactive by then, but its flip still walks through it, as a walk
   over every issued edge would). *)
type snap = {
  valid : (int, unit) Hashtbl.t; (* cid *)
  issued : (int, F.ticket list) Hashtbl.t; (* cid *)
  backing : (int, F.ticket list) Hashtbl.t; (* cid *)
  cur_active : (int, int) Hashtbl.t; (* cid *)
  active : (int, bool) Hashtbl.t; (* tid *)
  amount : (int, int) Hashtbl.t; (* tid *)
  funds : (int, F.currency option) Hashtbl.t; (* tid *)
  held : (int, bool) Hashtbl.t; (* tid *)
}

type op =
  | Fund of F.ticket * F.currency
  | Hold of F.ticket
  | Suspend of F.ticket
  | Resume of F.ticket
  | Set_amount of F.ticket * int
  | Destroy of F.ticket

let snapshot sys ~valid =
  let h () = Hashtbl.create 32 in
  let s =
    {
      valid = h ();
      issued = h ();
      backing = h ();
      cur_active = h ();
      active = h ();
      amount = h ();
      funds = h ();
      held = h ();
    }
  in
  List.iter (fun c -> Hashtbl.replace s.valid (F.currency_id c) ()) valid;
  List.iter
    (fun c ->
      let cid = F.currency_id c in
      Hashtbl.replace s.issued cid (F.issued_tickets sys c);
      Hashtbl.replace s.backing cid (F.backing_tickets sys c);
      Hashtbl.replace s.cur_active cid (F.active_amount sys c);
      List.iter
        (fun t ->
          let tid = F.ticket_id t in
          Hashtbl.replace s.active tid (F.is_active sys t);
          Hashtbl.replace s.amount tid (F.amount sys t);
          Hashtbl.replace s.funds tid (F.funds sys t);
          Hashtbl.replace s.held tid (F.is_held sys t))
        (F.issued_tickets sys c))
    (F.currencies sys);
  s

let predict s op =
  let cid = F.currency_id and tid = F.ticket_id in
  let acc = ref [] in
  let flipping = ref None in
  let live i =
    Hashtbl.find s.active (tid i)
    || match !flipping with Some f -> f == i | None -> false
  in
  let rec inval c =
    if Hashtbl.mem s.valid (cid c) then begin
      Hashtbl.remove s.valid (cid c);
      acc := c :: !acc;
      if not (F.is_base c) then
        List.iter
          (fun i ->
            match Hashtbl.find s.funds (tid i) with
            | Some c' when live i -> inval c'
            | Some _ | None -> ())
          (Hashtbl.find s.issued (cid c))
    end
  in
  let flip t =
    flipping := Some t;
    inval (F.denomination t);
    (match Hashtbl.find s.funds (tid t) with Some c -> inval c | None -> ());
    flipping := None
  in
  (* shift the denomination's active sum; [cascade] fires on a zero
     crossing in the direction of the shift *)
  let shift t delta cascade =
    let d = F.denomination t in
    let before = Hashtbl.find s.cur_active (cid d) in
    let after = before + delta in
    Hashtbl.replace s.cur_active (cid d) after;
    if before = 0 && after > 0 then cascade true (Hashtbl.find s.backing (cid d))
    else if before > 0 && after = 0 then
      cascade false (Hashtbl.find s.backing (cid d))
  in
  let rec set_active on t =
    if Hashtbl.find s.active (tid t) <> on then begin
      Hashtbl.replace s.active (tid t) on;
      flip t;
      let a = Hashtbl.find s.amount (tid t) in
      shift t (if on then a else -a) cascade
    end
  and cascade on backing = List.iter (set_active on) backing in
  let batch () =
    let b = !acc in
    acc := [];
    b
  in
  match op with
  | Fund (t, c) ->
      Hashtbl.replace s.funds (tid t) (Some c);
      Hashtbl.replace s.backing (cid c) (t :: Hashtbl.find s.backing (cid c));
      inval c;
      if Hashtbl.find s.cur_active (cid c) > 0 then set_active true t;
      [ batch () ]
  | Hold t ->
      Hashtbl.replace s.held (tid t) true;
      set_active true t;
      [ batch () ]
  | Suspend t ->
      set_active false t;
      [ batch () ]
  | Resume t ->
      set_active true t;
      [ batch () ]
  | Set_amount (t, n) ->
      let old = Hashtbl.find s.amount (tid t) in
      Hashtbl.replace s.amount (tid t) n;
      if Hashtbl.find s.active (tid t) then begin
        flip t;
        shift t (n - old) cascade
      end;
      [ batch () ]
  | Destroy t -> (
      match Hashtbl.find s.funds (tid t) with
      | Some c ->
          set_active false t;
          inval c;
          [ batch (); [] ]
      | None ->
          if Hashtbl.find s.held (tid t) then begin
            set_active false t;
            [ batch (); [] ]
          end
          else [ [] ])

let apply sys = function
  | Fund (t, c) -> F.fund sys ~ticket:t ~currency:c
  | Hold t -> F.hold sys t
  | Suspend t -> F.suspend sys t
  | Resume t -> F.resume sys t
  | Set_amount (t, n) -> F.set_amount sys t n
  | Destroy t -> F.destroy_ticket sys t

(* Tentpole property of the incremental valuation engine: after arbitrary
   mutation sequences on a multi-level graph, (1) every cached valuation
   equals a from-scratch walk bit-for-bit, (2) the watches name every
   currency whose observed valuation moved since it was last read — the
   contract the scheduler and resource managers rely on to revalue only
   O(dirtied) clients per draw — (3) each mutation queues exactly the
   currencies of the reference active-edge walk above, newest flip first,
   and a second queue, drained at random points, yields every mutation's
   batch in that order, mutations in order, a tag kept at the position it
   was first queued at, and (4) every valid non-base
   currency with zero active amount caches value 0 and unit value 0: the
   fact that lets invalidation skip inactive edges, since no change
   upstream of such a currency can move what it caches. *)
let qcheck_incremental_valuation_exact =
  let module Rng = Core.Rng in
  QCheck.Test.make
    ~name:"incremental valuation = from-scratch; watches cover every move"
    ~count:1000 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed:(seed + 7919) () in
      let sys = F.create_system () in
      let base = F.base sys in
      let currencies = ref [ base ] in
      let tickets = ref [] in
      let ok = ref true in
      (* Every currency is watched by two queues with its id as the tag:
         [per] is drained after every mutation, into [dirt] (the ids
         dirtied since the last observation); [q] at random points, against
         [model], the drain order the reference predicts for it. *)
      let dirt = Hashtbl.create 32 in
      let per = F.queue sys and q = F.queue sys in
      let model = ref [] (* newest first *) in
      let drained q =
        let got = List.init (F.settle q) (F.nth q) in
        F.clear q;
        got
      in
      let watch c =
        F.watch c per ~tag:(F.currency_id c);
        F.watch c q ~tag:(F.currency_id c)
      in
      watch base;
      let modelled = Hashtbl.create 32 in
      let drain () =
        if drained q <> List.rev !model then ok := false;
        Hashtbl.reset modelled;
        model := []
      in
      (* Run one mutation against the reference walk. Every live currency
         was read since the previous mutation, so all of them (and only
         they: not one made by this step) start out valid. *)
      let mutate ~valid op =
        let expected = predict (snapshot sys ~valid) op in
        let ids = List.map F.currency_id in
        match apply sys op with
        | () ->
            let flips = drained per in
            List.iter (fun id -> Hashtbl.replace dirt id ()) flips;
            if flips <> List.concat_map ids expected then ok := false;
            List.iter
              (fun b ->
                List.iter
                  (fun id ->
                    if not (Hashtbl.mem modelled id) then begin
                      Hashtbl.replace modelled id ();
                      model := id :: !model
                    end)
                  (ids b))
              expected
        | exception (F.Cycle _ | Invalid_argument _) ->
            if F.queued per <> 0 then ok := false
      in
      (* multi-level graph: each currency is funded from a random earlier
         one, so chains several levels deep (and diamonds) appear *)
      let mk_currency ?(checked = false) i =
        let valid = !currencies in
        let from = Rng.choose rng (Array.of_list !currencies) in
        let c = F.make_currency sys ~name:(Printf.sprintf "q%d-%d" seed i) in
        watch c;
        let t = F.issue sys ~currency:from ~amount:(1 + Rng.int_below rng 400) in
        if checked then mutate ~valid (Fund (t, c))
        else F.fund sys ~ticket:t ~currency:c;
        tickets := t :: !tickets;
        currencies := c :: !currencies
      in
      for i = 0 to 5 + Rng.int_below rng 6 do
        mk_currency i
      done;
      List.iter
        (fun c ->
          if (not (F.is_base c)) && Rng.bool rng then begin
            let t = F.issue sys ~currency:c ~amount:(1 + Rng.int_below rng 100) in
            F.hold sys t;
            tickets := t :: !tickets
          end)
        !currencies;
      (* last observed (value, unit) per currency, read through the caches *)
      let shadow = Hashtbl.create 32 in
      let observe_all () =
        List.iter
          (fun c ->
            Hashtbl.replace shadow (F.currency_id c)
              (F.currency_value sys c, F.unit_value sys c))
          (F.currencies sys)
      in
      observe_all ();
      Hashtbl.reset dirt;
      F.clear per;
      F.clear q;
      for i = 0 to 29 do
        let pick l = Rng.choose rng (Array.of_list l) in
        let valid = F.currencies sys in
        (match Rng.int_below rng 7 with
        | 0 -> mk_currency ~checked:true (100 + i)
        | 1 ->
            let denom = pick !currencies in
            tickets :=
              F.issue sys ~currency:denom ~amount:(Rng.int_below rng 200)
              :: !tickets
        | 2 when !tickets <> [] ->
            let t = pick !tickets in
            let c = pick !currencies in
            mutate ~valid (Fund (t, c))
        | 3 when !tickets <> [] -> mutate ~valid (Hold (pick !tickets))
        | 4 when !tickets <> [] ->
            let t = pick !tickets in
            mutate ~valid (if Rng.bool rng then Suspend t else Resume t)
        | 5 when !tickets <> [] ->
            let t = pick !tickets in
            mutate ~valid (Set_amount (t, Rng.int_below rng 300))
        | 6 when !tickets <> [] ->
            let t = pick !tickets in
            mutate ~valid (Destroy t);
            tickets := List.filter (fun t' -> t' != t) !tickets
        | _ -> ());
        if Rng.int_below rng 3 = 0 then drain ();
        (* after each mutation, before any read revalidates: an inactive
           currency the mutation left valid is worth nothing *)
        List.iter
          (fun c ->
            if (not (F.is_base c)) && F.cache_valid sys c && F.active_amount sys c = 0
            then begin
              let i = F.currency_slot c in
              if (F.values sys).(i) <> 0. || (F.unit_table sys c).(i) <> 0. then
                ok := false
            end)
          (F.currencies sys);
        (* after each mutation: exact cache agreement, and any move since
           the last observation must have been announced *)
        List.iter
          (fun c ->
            let fresh_v = scratch_value sys c and fresh_u = scratch_unit sys c in
            let cached_v = F.currency_value sys c in
            let cached_u = F.unit_value sys c in
            if cached_v <> fresh_v || cached_u <> fresh_u then ok := false;
            (match Hashtbl.find_opt shadow (F.currency_id c) with
            | Some (ov, ou)
              when (ov <> cached_v || ou <> cached_u)
                   && not (Hashtbl.mem dirt (F.currency_id c)) ->
                ok := false
            | _ -> ());
            Hashtbl.replace shadow (F.currency_id c) (cached_v, cached_u))
          (F.currencies sys);
        Hashtbl.reset dirt;
        F.check_invariants sys
      done;
      drain ();
      !ok)

(* --- watches and queues --------------------------------------------------- *)

(* A queue watching [cs], each currency's tag its index there, and its
   drain as currency names. *)
let watch_all sys cs =
  let q = F.queue sys in
  List.iteri (fun i c -> F.watch c q ~tag:i) cs;
  let drained () =
    let got =
      List.init (F.settle q) (fun i ->
          let tag = F.nth q i in
          if tag < 0 then "-" else F.currency_name (List.nth cs tag))
    in
    F.clear q;
    got
  in
  (q, drained)

let names = Alcotest.(list string)

(* base -> a -> b -> c, a held ticket in c keeping the chain active, and a
   second held ticket [x] in a. *)
let chain () =
  let sys = F.create_system () in
  let mk name from amount =
    let c = F.make_currency sys ~name in
    F.fund sys ~ticket:(F.issue sys ~currency:from ~amount) ~currency:c;
    c
  in
  let a = mk "a" (F.base sys) 100 in
  let b = mk "b" a 10 in
  let c = mk "c" b 10 in
  F.hold sys (F.issue sys ~currency:c ~amount:5);
  let x = F.issue sys ~currency:a ~amount:1 in
  F.hold sys x;
  ignore (F.currency_value sys c : float);
  (sys, a, b, c, x)

let test_queue_newest_flip_first () =
  (* suspending x stales a, then (through a's ticket backing b) b, then c:
     the queue drains them newest first *)
  let sys, a, b, c, x = chain () in
  let _, drained = watch_all sys [ a; b; c ] in
  F.suspend sys x;
  check names "drained newest flip first" [ "c"; "b"; "a" ] (drained ())

let test_queue_once_per_mutation () =
  (* a diamond: a funds b and c, both fund d. Staling a reaches d along
     both edges; the walk flips it once, through the newer edge (c). *)
  let sys = F.create_system () in
  let cur name = F.make_currency sys ~name in
  let fund ~from ~amount c =
    F.fund sys ~ticket:(F.issue sys ~currency:from ~amount) ~currency:c
  in
  let a = cur "a" and b = cur "b" and c = cur "c" and d = cur "d" in
  fund ~from:(F.base sys) ~amount:100 a;
  fund ~from:a ~amount:10 b;
  fund ~from:a ~amount:10 c;
  fund ~from:b ~amount:10 d;
  fund ~from:c ~amount:10 d;
  F.hold sys (F.issue sys ~currency:d ~amount:5);
  let x = F.issue sys ~currency:a ~amount:1 in
  F.hold sys x;
  ignore (F.currency_value sys d : float);
  let _, drained = watch_all sys [ a; b; c; d ] in
  let h0 = F.hook_calls sys in
  F.suspend sys x;
  checki "one tag per flipped watch" 4 (F.hook_calls sys - h0);
  check names "d appears once" [ "b"; "d"; "c"; "a" ] (drained ())

let test_queue_across_mutations () =
  (* mutations drain in the order they happened, each newest first; a
     cancelled tag reads -1, and a cleared queue starts afresh *)
  let sys, a, b, c, x = chain () in
  let y = F.issue sys ~currency:c ~amount:3 in
  F.hold sys y;
  ignore (F.currency_value sys c : float);
  let q, drained = watch_all sys [ a; b; c ] in
  F.suspend sys y;
  F.suspend sys x;
  (* y's suspend flips c alone; x's then flips a and b (c is already
     stale, so the walk stops there) *)
  check names "mutation order, newest first within" [ "c"; "b"; "a" ] (drained ());
  ignore (F.currency_value sys c : float);
  F.resume sys x;
  F.cancel q 1;
  check names "cancelled entry" [ "c"; "-"; "a" ] (drained ());
  ignore (F.currency_value sys c : float);
  F.resume sys y;
  check names "cleared, then only the new flips" [ "c" ] (drained ())

let test_watch_lifecycle () =
  (* two queues on one currency both get its flip; a queued tag is not
     queued twice; removing the currency drops its watches, so a currency
     that recycles its slot is unwatched *)
  let sys = F.create_system () in
  let a = F.make_currency sys ~name:"a" in
  let t = F.issue sys ~currency:(F.base sys) ~amount:100 in
  F.fund sys ~ticket:t ~currency:a;
  let h = F.issue sys ~currency:a ~amount:1 in
  F.hold sys h;
  ignore (F.currency_value sys a : float);
  let q1 = F.queue sys and q2 = F.queue sys in
  F.watch a q1 ~tag:7;
  F.watch a q2 ~tag:9;
  checki "first queue's tag" 7 (F.tag a q1);
  checki "second queue's tag" 9 (F.tag a q2);
  let contents q = List.init (F.settle q) (F.nth q) in
  F.suspend sys h;
  ignore (F.currency_value sys a : float);
  F.resume sys h;
  check (Alcotest.list Alcotest.int) "first queue, once" [ 7 ] (contents q1);
  check (Alcotest.list Alcotest.int) "second queue, once" [ 9 ] (contents q2);
  checkb "queued" true (F.is_queued q1 7);
  F.cancel q1 7;
  checkb "cancelled" false (F.is_queued q1 7);
  check (Alcotest.list Alcotest.int) "cancelled entry" [ -1 ] (contents q1);
  F.clear q1;
  F.clear q2;
  F.destroy_ticket sys h;
  F.destroy_ticket sys t;
  let slot = F.currency_slot a in
  F.remove_currency sys a;
  let a' = F.make_currency sys ~name:"a2" in
  checki "the slot is recycled" slot (F.currency_slot a');
  checki "and unwatched" (-1) (F.tag a' q1);
  F.fund sys ~ticket:(F.issue sys ~currency:(F.base sys) ~amount:5) ~currency:a';
  let h' = F.issue sys ~currency:a' ~amount:1 in
  F.hold sys h';
  ignore (F.currency_value sys a' : float);
  F.suspend sys h';
  checki "nothing queued" 0 (F.queued q1 + F.queued q2)

let test_pp_smoke () =
  let sys, _, alice, _, _, _, _, _, t2, _, _ = figure3 () in
  let s = Format.asprintf "%a" F.pp_system sys in
  checkb "system rendering mentions alice" true
    (Core.Corpus.count_substring ~haystack:s ~needle:"alice" > 0);
  let cs = Format.asprintf "%a" (F.pp_currency sys) alice in
  checkb "currency rendering has active amount" true
    (Core.Corpus.count_substring ~haystack:cs ~needle:"active" > 0);
  let ts = Format.asprintf "%a" (F.pp_ticket sys) t2 in
  checkb "ticket rendering shows denomination" true
    (Core.Corpus.count_substring ~haystack:ts ~needle:"task2" > 0)

let test_valuation_snapshot_consistent () =
  (* the cached valuations value many tickets coherently *)
  let sys, _, _, _, _, task2, task3, _, t2, t3, t4 = figure3 () in
  checkf "t2" 400. (F.ticket_value sys t2);
  checkf "t3" 600. (F.ticket_value sys t3);
  checkf "t4" 2000. (F.ticket_value sys t4);
  checkf "currency" 1000. (F.currency_value sys task2);
  checkf "unit value" 2. (F.unit_value sys task2);
  checkf "unit value task3" 20. (F.unit_value sys task3)

let test_to_dot () =
  let sys, _, _, _, _task1, _, _, _, _, _, _ = figure3 () in
  let dot = F.to_dot sys in
  let has needle = Core.Corpus.count_substring ~haystack:dot ~needle > 0 in
  checkb "digraph" true (has "digraph funding");
  checkb "currencies as boxes" true (has "shape=box");
  checkb "held tickets as ellipses" true (has "shape=ellipse");
  checkb "alice labelled" true (has "alice");
  checkb "inactive edges dashed" true (has "style=dashed");
  checkb "amount labels" true (has "1000.base")

(* --- the amount bound ------------------------------------------------------ *)

(* Two active tickets of 2^61 in one currency overflowed its active sum to
   a negative amount, and check_invariants then failed ("backing ticket 2
   activity true vs amount -4611686018427387903"). Such amounts are now
   refused; at the bound, the sum is exact in int and in float. *)
let test_amount_bound () =
  let sys = F.create_system () in
  let base = F.base sys in
  let c = F.make_currency sys ~name:"spike" in
  let backing = F.issue sys ~currency:base ~amount:100 in
  F.fund sys ~ticket:backing ~currency:c;
  let refused f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  checkb "2^61 refused" true (refused (fun () -> F.issue sys ~currency:c ~amount:(1 lsl 61)));
  checkb "one past the bound refused" true
    (refused (fun () -> F.issue sys ~currency:c ~amount:(F.max_amount + 1)));
  checkb "Monte-Carlo's largest ticket is legal" true
    (Core.Monte_carlo.max_ticket <= F.max_amount);
  let holders =
    List.init 2 (fun _ ->
        let t = F.issue sys ~currency:c ~amount:F.max_amount in
        F.hold sys t;
        t)
  in
  F.check_invariants sys;
  checki "active sum exact" (2 * F.max_amount) (F.active_amount sys c);
  List.iter (fun t -> checkf "each holds half" 50. (F.ticket_value sys t)) holders;
  let t = List.hd holders in
  checkb "inflation past the bound refused" true
    (refused (fun () -> F.set_amount sys t (1 lsl 61)));
  checki "the refused inflation left the ticket" F.max_amount (F.amount sys t);
  checki "and the sum" (2 * F.max_amount) (F.active_amount sys c);
  checkb "negative refused" true (refused (fun () -> F.set_amount sys t (-1)));
  F.check_invariants sys

let () =
  Alcotest.run "funding"
    [
      ( "valuation",
        [
          Alcotest.test_case "paper figure 3 values" `Quick test_figure3_values;
          Alcotest.test_case "figure 3 with task1 active" `Quick test_figure3_task1_wakes;
          Alcotest.test_case "base tickets are face value" `Quick test_base_valuation;
          Alcotest.test_case "sibling share shift" `Quick test_sibling_share_shift;
        ] );
      ( "activation",
        [
          Alcotest.test_case "propagation through a chain" `Quick
            test_activation_propagation_chain;
          Alcotest.test_case "set_amount zero crossings propagate" `Quick
            test_set_amount_zero_crossing_propagates;
        ] );
      ( "inflation",
        [
          Alcotest.test_case "contained within a currency" `Quick test_inflation_contained;
          Alcotest.test_case "set_amount updates sums" `Quick test_set_amount;
          Alcotest.test_case "amounts bounded, sums exact" `Quick test_amount_bound;
        ] );
      ( "graph",
        [
          Alcotest.test_case "direct cycle rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "deep cycle rejected" `Quick test_deep_cycle_rejected;
          Alcotest.test_case "duplicate names" `Quick test_duplicate_names;
          Alcotest.test_case "find and list" `Quick test_find_and_list;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "remove currency" `Quick test_remove_currency;
          Alcotest.test_case "destroy tickets in any state" `Quick
            test_destroy_ticket_everywhere;
          Alcotest.test_case "misuse raises" `Quick test_lifecycle_errors;
          Alcotest.test_case "graphviz export" `Quick test_to_dot;
          Alcotest.test_case "pretty printers" `Quick test_pp_smoke;
          Alcotest.test_case "valuation snapshots" `Quick test_valuation_snapshot_consistent;
          Alcotest.test_case "slot reuse keeps the flat state" `Quick
            test_slot_reuse_keeps_flat_state;
        ] );
      ( "watches",
        [
          Alcotest.test_case "newest flip first" `Quick test_queue_newest_flip_first;
          Alcotest.test_case "each currency once per mutation" `Quick
            test_queue_once_per_mutation;
          Alcotest.test_case "mutation order, cancel and clear" `Quick
            test_queue_across_mutations;
          Alcotest.test_case "several queues, dropped with the currency" `Quick
            test_watch_lifecycle;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_value_conservation;
            qcheck_random_ops_keep_invariants;
            qcheck_incremental_valuation_exact;
            qcheck_cycle_check_matches_reachability;
          ] );
    ]
