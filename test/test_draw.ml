(* Draw structures: list lottery (Figure 1, move-to-front), Fenwick-tree
   lottery, inverse lottery, and the Section 2 probabilistic guarantees. *)

module Ll = Core.List_lottery
module Tl = Core.Tree_lottery
module Il = Core.Inverse_lottery
module Rng = Core.Rng
module Chi = Core.Chi_square

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf msg = check (Alcotest.float 1e-9) msg

let rng () = Rng.create ~algo:Splitmix64 ~seed:20240 ()

(* --- list lottery --------------------------------------------------------- *)

let add_paper_clients t =
  (* Figure 1's clients hold 10, 2, 5, 1, 2 tickets; the list lottery
     prepends, so add in reverse to scan in the paper's order. *)
  List.rev_map
    (fun (name, w) -> (name, Ll.add t ~client:name ~weight:(float_of_int w)))
    (List.rev [ ("c1", 10); ("c2", 2); ("c3", 5); ("c4", 1); ("c5", 2) ])

let test_figure1_walkthrough () =
  let t = Ll.create ~order:Ll.Unordered () in
  ignore (add_paper_clients t);
  checkf "total is 20" 20. (Ll.total t);
  (* running sums 10, 12, 17, 18, 20: winning value 15 lands on c3 *)
  (match Ll.draw_with_value t ~winning:15. with
  | Some h -> check Alcotest.string "winner" "c3" (Ll.client h)
  | None -> Alcotest.fail "no winner");
  (* boundaries: 9.99 -> c1, 10 -> c2, 17 -> c4, 19.5 -> c5 *)
  let winner_at v =
    match Ll.draw_with_value t ~winning:v with
    | Some h -> Ll.client h
    | None -> Alcotest.fail "no winner"
  in
  check Alcotest.string "9.99" "c1" (winner_at 9.99);
  check Alcotest.string "10" "c2" (winner_at 10.);
  check Alcotest.string "17" "c4" (winner_at 17.);
  check Alcotest.string "19.5" "c5" (winner_at 19.5)

let test_move_to_front () =
  let t = Ll.create () in
  ignore (add_paper_clients t);
  (* winning value 19.5 selects the last client; it must move to the head *)
  (match Ll.draw_with_value t ~winning:19.5 with
  | Some h -> check Alcotest.string "winner" "c5" (Ll.client h)
  | None -> Alcotest.fail "no winner");
  (match Ll.to_list t with
  | (first, _) :: _ -> check Alcotest.string "moved to front" "c5" first
  | [] -> Alcotest.fail "empty");
  checkf "total unchanged" 20. (Ll.total t)

let test_mtf_shortens_searches () =
  (* a heavily funded client should be found quickly under move-to-front *)
  let run ~mtf =
    let t =
      Ll.create ~order:(if mtf then Ll.Move_to_front else Ll.Unordered) ()
    in
    ignore (Ll.add t ~client:"heavy" ~weight:100.);
    (* heavy lands at the tail of the scan order: 50 light clients first *)
    for i = 1 to 50 do
      ignore (Ll.add t ~client:(Printf.sprintf "light%d" i) ~weight:1.)
    done;
    let r = rng () in
    Ll.reset_comparisons t;
    for _ = 1 to 2_000 do
      ignore (Ll.draw t r)
    done;
    Ll.comparisons t
  in
  let with_mtf = run ~mtf:true and without = run ~mtf:false in
  checkb
    (Printf.sprintf "mtf=%d < plain=%d" with_mtf without)
    true (with_mtf * 2 < without)

let test_list_add_remove_weights () =
  let t = Ll.create () in
  let a = Ll.add t ~client:"a" ~weight:1. in
  let b = Ll.add t ~client:"b" ~weight:2. in
  checki "size" 2 (Ll.size t);
  checkf "total" 3. (Ll.total t);
  Ll.set_weight t a 5.;
  checkf "total after set" 7. (Ll.total t);
  checkf "weight readback" 5. (Ll.weight t a);
  Ll.remove t a;
  checkb "removed" false (Ll.mem t a);
  checki "size after remove" 1 (Ll.size t);
  Ll.remove t a;
  checki "remove idempotent" 1 (Ll.size t);
  checkb "b still in" true (Ll.mem t b);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "List_lottery.set_weight: negative weight") (fun () ->
      Ll.set_weight t b (-1.))

let test_list_empty_and_zero () =
  let t = Ll.create () in
  checkb "empty draw" true (Ll.draw t (rng ()) = None);
  ignore (Ll.add t ~client:"z" ~weight:0.);
  checkb "all-zero draw" true (Ll.draw t (rng ()) = None)

let test_zero_weight_never_wins () =
  let t = Ll.create () in
  ignore (Ll.add t ~client:"zero" ~weight:0.);
  ignore (Ll.add t ~client:"one" ~weight:1.);
  let r = rng () in
  for _ = 1 to 500 do
    match Ll.draw_client t r with
    | Some "one" -> ()
    | other -> Alcotest.failf "unexpected winner %s" (Option.value ~default:"-" other)
  done

let distribution_matches draw_client weights ~draws =
  let r = rng () in
  let observed = Array.make (Array.length weights) 0 in
  for _ = 1 to draws do
    match draw_client r with
    | Some i -> observed.(i) <- observed.(i) + 1
    | None -> Alcotest.fail "no winner"
  done;
  Chi.goodness_of_fit ~observed ~weights ()

let test_list_distribution () =
  let t = Ll.create () in
  let weights = [| 10.; 2.; 5.; 1.; 2. |] in
  Array.iteri (fun i w -> ignore (Ll.add t ~client:i ~weight:w)) weights;
  checkb "chi-square ok" true
    (distribution_matches (fun r -> Ll.draw_client t r) weights ~draws:20_000)

let test_sorted_order_shortens_searches () =
  (* the paper's other suggestion: keep clients sorted by decreasing
     tickets *)
  let run order =
    let t = Ll.create ~order () in
    ignore (Ll.add t ~client:"heavy" ~weight:100.);
    for i = 1 to 50 do
      ignore (Ll.add t ~client:(Printf.sprintf "light%d" i) ~weight:1.)
    done;
    let r = rng () in
    Ll.reset_comparisons t;
    for _ = 1 to 2_000 do
      ignore (Ll.draw t r)
    done;
    Ll.comparisons t
  in
  let sorted = run Ll.By_weight and plain = run Ll.Unordered in
  checkb
    (Printf.sprintf "sorted=%d < plain=%d" sorted plain)
    true (sorted * 2 < plain);
  (* sorted order must not change the distribution *)
  let t = Ll.create ~order:Ll.By_weight () in
  let weights = [| 1.; 5.; 3. |] in
  Array.iteri (fun i w -> ignore (Ll.add t ~client:i ~weight:w)) weights;
  checkb "distribution intact (chi-square)" true
    (distribution_matches (fun r -> Ll.draw_client t r) weights ~draws:20_000)

(* --- tree lottery ---------------------------------------------------------- *)

let test_tree_matches_prefix_sums () =
  let t = Tl.create () in
  let weights = [| 10.; 2.; 5.; 1.; 2. |] in
  Array.iteri (fun i w -> ignore (Tl.add t ~client:i ~weight:w)) weights;
  checkf "total" 20. (Tl.total t);
  let winner_at v =
    match Tl.draw_with_value t ~winning:v with
    | Some h -> Tl.client h
    | None -> Alcotest.fail "no winner"
  in
  checki "15 -> slot 2" 2 (winner_at 15.);
  checki "9.99 -> slot 0" 0 (winner_at 9.99);
  checki "10 -> slot 1" 1 (winner_at 10.);
  checki "17 -> slot 3" 3 (winner_at 17.);
  checki "19.9 -> slot 4" 4 (winner_at 19.9)

let test_tree_update_remove_reuse () =
  let t = Tl.create ~initial_capacity:2 () in
  let handles = Array.init 10 (fun i -> Tl.add t ~client:i ~weight:1.) in
  checki "size" 10 (Tl.size t);
  checkf "total" 10. (Tl.total t);
  Tl.set_weight t handles.(3) 5.;
  checkf "total after update" 14. (Tl.total t);
  Tl.remove t handles.(0);
  Tl.remove t handles.(0);
  checki "size after idempotent remove" 9 (Tl.size t);
  checkf "weight of removed" 0. (Tl.weight t handles.(0));
  (* slot reuse *)
  let again = Tl.add t ~client:99 ~weight:2. in
  checki "size back to 10" 10 (Tl.size t);
  checkb "live" true (Tl.mem t again);
  checkf "total" 15. (Tl.total t);
  Alcotest.check_raises "set on removed handle"
    (Invalid_argument "Tree_lottery.set_weight: removed handle") (fun () ->
      Tl.set_weight t handles.(0) 1.)

let test_tree_distribution () =
  let t = Tl.create () in
  let weights = [| 8.; 4.; 2.; 1.; 1. |] in
  Array.iteri (fun i w -> ignore (Tl.add t ~client:i ~weight:w)) weights;
  checkb "chi-square ok" true
    (distribution_matches (fun r -> Tl.draw_client t r) weights ~draws:20_000)

let test_tree_and_list_agree () =
  (* identical weights in identical scan order must pick identical winners
     for every winning value *)
  let weights = [| 3.; 0.; 7.; 2.; 5.; 0.; 1. |] in
  let tree = Tl.create () in
  Array.iteri (fun i w -> ignore (Tl.add tree ~client:i ~weight:w)) weights;
  let lst = Ll.create ~order:Ll.Unordered () in
  (* prepend-reversal again: add backwards so scans run 0..n *)
  for i = Array.length weights - 1 downto 0 do
    ignore (Ll.add lst ~client:i ~weight:weights.(i))
  done;
  let r = rng () in
  for _ = 1 to 2_000 do
    let v = Rng.float_unit r *. 18. in
    let wt = Option.map Tl.client (Tl.draw_with_value tree ~winning:v) in
    let wl = Option.map Ll.client (Ll.draw_with_value lst ~winning:v) in
    if wt <> wl then
      Alcotest.failf "disagree at %.6f: tree=%s list=%s" v
        (match wt with Some i -> string_of_int i | None -> "-")
        (match wl with Some i -> string_of_int i | None -> "-")
  done

let qcheck_tree_total_is_sum =
  QCheck.Test.make ~name:"tree total equals sum of live weights" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (float_bound_inclusive 50.))
    (fun ws ->
      let t = Tl.create () in
      let hs = List.map (fun w -> Tl.add t ~client:() ~weight:w) ws in
      (* remove every third *)
      List.iteri (fun i h -> if i mod 3 = 0 then Tl.remove t h) hs;
      let expected =
        List.filteri (fun i _ -> i mod 3 <> 0) ws |> List.fold_left ( +. ) 0.
      in
      abs_float (Tl.total t -. expected) < 1e-6)

(* Model-based churn: 1000 random add/remove/set_weight/draw steps against
   a naive slot-ordered model (slots handed out in insertion order, vacated
   ones reused last-freed-first, as the tree's free list does). Totals must
   agree at every step. At each draw the model walks
   [float_unit r' *. total] from its own stream to a winner; [check_draw]
   then compares the tree against that winner. Integer-valued weights keep
   every partial sum float-exact, so agreement is exact, not approximate. *)
let tree_model_churn ~check_draw seed =
  let ops = Rng.create ~algo:Splitmix64 ~seed () in
  let r_tree = Rng.create ~algo:Splitmix64 ~seed:(seed + 7919) () in
  let r_model = Rng.create ~algo:Splitmix64 ~seed:(seed + 7919) () in
  let tree = Tl.create ~initial_capacity:2 () in
  (* the model: slot -> (client, weight), a high-water mark, a free stack *)
  let slots = Hashtbl.create 64 in
  let used = ref 0 and free = ref [] in
  let live = ref [] (* (client, tree handle, model slot) *) in
  let ok = ref true in
  for i = 0 to 999 do
    (match Rng.int_below ops 4 with
    | 0 ->
        let w = float_of_int (Rng.int_below ops 50) in
        let h = Tl.add tree ~client:i ~weight:w in
        let s =
          match !free with
          | s :: rest ->
              free := rest;
              s
          | [] ->
              incr used;
              !used - 1
        in
        Hashtbl.replace slots s (i, w);
        live := (i, h, s) :: !live
    | 1 when !live <> [] ->
        let idx = Rng.int_below ops (List.length !live) in
        let _, h, s = List.nth !live idx in
        Tl.remove tree h;
        Hashtbl.remove slots s;
        free := s :: !free;
        live := List.filteri (fun j _ -> j <> idx) !live
    | 2 when !live <> [] ->
        let idx = Rng.int_below ops (List.length !live) in
        let c, h, s = List.nth !live idx in
        let w = float_of_int (Rng.int_below ops 50) in
        Tl.set_weight tree h w;
        Hashtbl.replace slots s (c, w)
    | 3 ->
        let model_total = Hashtbl.fold (fun _ (_, w) acc -> acc +. w) slots 0. in
        if model_total > 0. then begin
          let v = Rng.float_unit r_model *. model_total in
          let rec walk s acc =
            if s >= !used then None
            else
              match Hashtbl.find_opt slots s with
              | Some (c, w) when w > 0. && acc +. w > v -> Some c
              | Some (_, w) -> walk (s + 1) (acc +. w)
              | None -> walk (s + 1) acc
          in
          let model_winner = walk 0 0. in
          if model_winner = None || not (check_draw tree r_tree v model_winner) then
            ok := false
        end
        else if Tl.draw_client tree r_tree <> None then ok := false
    | _ -> ());
    let model_total = Hashtbl.fold (fun _ (_, w) acc -> acc +. w) slots 0. in
    if Tl.total tree <> model_total then ok := false
  done;
  !ok

let qcheck_tree_matches_reference_model =
  (* the tree's [draw_with_value] must name the model's winner for the
     model's winning value *)
  QCheck.Test.make ~name:"fenwick tree agrees with a naive model" ~count:100
    QCheck.small_int
    (tree_model_churn ~check_draw:(fun tree _ v model_winner ->
         Option.map Tl.client (Tl.draw_with_value tree ~winning:v) = model_winner))

let qcheck_tree_draw_for_draw =
  (* the tree draws with [draw_client] from one RNG stream while the model
     walks a twin stream — the same [bits53 / 2^53] deviate — so the two
     must name the same winner on every draw *)
  QCheck.Test.make ~name:"tree matches model draw-for-draw" ~count:100
    QCheck.small_int
    (tree_model_churn ~check_draw:(fun tree r_tree _ model_winner ->
         Tl.draw_client tree r_tree = model_winner))

let qcheck_tree_draw_in_range =
  QCheck.Test.make ~name:"tree draw always returns a live positive-weight client"
    ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_bound_inclusive 20.)) small_int)
    (fun (ws, seed) ->
      let t = Tl.create () in
      List.iteri (fun i w -> ignore (Tl.add t ~client:i ~weight:w)) ws;
      let r = Rng.create ~algo:Splitmix64 ~seed () in
      let arr = Array.of_list ws in
      match Tl.draw t r with
      | Some h -> arr.(Tl.client h) > 0.
      | None -> List.for_all (fun w -> w <= 0.) ws)

(* --- inverse lottery --------------------------------------------------------- *)

let test_inverse_probabilities () =
  let t = Il.create () in
  let a = Il.add t ~client:"a" ~tickets:3. in
  let b = Il.add t ~client:"b" ~tickets:2. in
  let c = Il.add t ~client:"c" ~tickets:1. in
  checkf "total" 6. (Il.total_tickets t);
  (* paper formula: (1/(n-1)) (1 - t/T) *)
  checkf "p(a)" (0.5 *. (1. -. 0.5)) (Il.loss_probability t a);
  checkf "p(b)" (0.5 *. (1. -. (1. /. 3.))) (Il.loss_probability t b);
  checkf "p(c)" (0.5 *. (1. -. (1. /. 6.))) (Il.loss_probability t c);
  let sum =
    Il.loss_probability t a +. Il.loss_probability t b +. Il.loss_probability t c
  in
  checkf "probabilities sum to 1" 1. sum

let test_inverse_distribution () =
  let t = Il.create () in
  let handles =
    Array.of_list
      (List.map
         (fun (name, w) -> Il.add t ~client:name ~tickets:w)
         [ ("a", 3.); ("b", 2.); ("c", 1.) ])
  in
  let weights = Array.map (fun h -> Il.loss_probability t h) handles in
  let r = rng () in
  let observed = Array.make 3 0 in
  for _ = 1 to 20_000 do
    match Il.draw_loser t r with
    | Some h ->
        let i = match Il.client h with "a" -> 0 | "b" -> 1 | _ -> 2 in
        observed.(i) <- observed.(i) + 1
    | None -> Alcotest.fail "no loser"
  done;
  checkb "distribution matches the inverse formula" true
    (Chi.goodness_of_fit ~observed ~weights ());
  (* fewer tickets must lose more often *)
  checkb "a loses least" true (observed.(0) < observed.(1) && observed.(1) < observed.(2))

let test_inverse_small_cases () =
  let t = Il.create () in
  checkb "empty" true (Il.draw_loser t (rng ()) = None);
  let only = Il.add t ~client:"only" ~tickets:5. in
  checkb "singleton" true (Il.draw_loser t (rng ()) = None);
  checkf "singleton probability 0" 0. (Il.loss_probability t only);
  Il.remove t only;
  checki "size" 0 (Il.size t)

let test_inverse_weighted_extra () =
  let t = Il.create () in
  ignore (Il.add t ~client:"holds-nothing" ~tickets:1.);
  ignore (Il.add t ~client:"holds-pages" ~tickets:1.);
  let extra = function "holds-pages" -> 1. | _ -> 0. in
  let r = rng () in
  for _ = 1 to 200 do
    match Il.draw_loser_weighted t r ~extra with
    | Some h -> check Alcotest.string "only the page holder loses" "holds-pages" (Il.client h)
    | None -> Alcotest.fail "no loser"
  done

let test_inverse_set_tickets () =
  let t = Il.create () in
  let a = Il.add t ~client:"a" ~tickets:1. in
  ignore (Il.add t ~client:"b" ~tickets:1.);
  Il.set_tickets t a 9.;
  checkf "tickets readback" 9. (Il.tickets t a);
  checkf "p(a) shrinks" (1. -. 0.9) (Il.loss_probability t a)

let test_list_total_stays_exact_over_many_mutations () =
  (* incremental float totals are re-summed periodically; after thousands of
     updates the draw bound must still match the exact sum *)
  let t = Ll.create () in
  let handles = Array.init 10 (fun i -> Ll.add t ~client:i ~weight:1.1) in
  let r = rng () in
  for _ = 1 to 10_000 do
    let h = handles.(Rng.int_below r 10) in
    Ll.set_weight t h (0.1 +. Rng.float_unit r)
  done;
  let exact = List.fold_left (fun acc (_, w) -> acc +. w) 0. (Ll.to_list t) in
  checkb "total within float tolerance of exact sum" true
    (abs_float (Ll.total t -. exact) < 1e-6)

let test_tree_drift_stability () =
  let t = Tl.create () in
  let handles = Array.init 32 (fun i -> Tl.add t ~client:i ~weight:1.) in
  let r = rng () in
  for _ = 1 to 20_000 do
    let h = handles.(Rng.int_below r 32) in
    Tl.set_weight t h (Rng.float_unit r);
    (* a draw must always return a live client despite accumulated drift *)
    match Tl.draw t r with
    | Some _ -> ()
    | None ->
        if Tl.total t > 1e-9 then Alcotest.fail "draw failed with positive total"
  done;
  checkb "still consistent" true (Tl.size t = 32)

(* Drift by construction: 3 + 1e16 rounds to 1e16 + 4 in every Fenwick
   node above both slots, so zeroing the 1e16 client leaves a root of 4
   over a true total of 3. A winning value in [3, 4) then descends onto
   the zero-weight slot and must take the counted O(n) fallback — and
   still return the one live client. *)
let test_tree_drift_fallback_counted () =
  let d = Core.Draw.of_mode Core.Draw.Tree in
  ignore (Core.Draw.add d ~client:"live" ~weight:3.);
  let big = Core.Draw.add d ~client:"gone" ~weight:1e16 in
  Core.Draw.set_weight d big 0.;
  checki "no fallback before any draw" 0 (Core.Draw.drift_fallbacks d);
  checkb "root drifted above the true total" true (Core.Draw.total d > 3.);
  let r = rng () in
  for _ = 1 to 200 do
    let s = Core.Draw.draw_slot d r in
    check Alcotest.string "every draw lands on the live client" "live"
      (Core.Draw.client_at d s)
  done;
  let n = Core.Draw.drift_fallbacks d in
  checkb "fallbacks counted (about a quarter of 200 draws)" true
    (n > 20 && n < 100);
  checki "other backends report zero" 0
    (Core.Draw.drift_fallbacks (Core.Draw.of_mode Core.Draw.List))

(* --- unified Draw front-end -------------------------------------------------- *)

module D = Core.Draw

let test_draw_wrapper_ops () =
  List.iter
    (fun mode ->
      let t = D.of_mode mode in
      let a = D.add t ~client:"a" ~weight:2. in
      let b = D.add t ~client:"b" ~weight:1. in
      checki "size" 2 (D.size t);
      checkf "total" 3. (D.total t);
      checkf "weight readback" 2. (D.weight t a);
      check Alcotest.string "client readback" "b" (D.client b);
      D.set_weight t a 5.;
      checkf "total after set" 6. (D.total t);
      D.remove t b;
      checki "size after remove" 1 (D.size t);
      (match D.draw_client t (rng ()) with
      | Some "a" -> ()
      | _ -> Alcotest.fail "expected a to win");
      D.iter t (fun h -> check Alcotest.string "iter sees a" "a" (D.client h));
      D.remove t a;
      checkb "empty draw" true (D.draw t (rng ()) = None))
    [ D.List; D.Tree ]

let test_draw_foreign_handle_rejected () =
  let l = D.of_mode D.List and tr = D.of_mode D.Tree in
  let h = D.add l ~client:"x" ~weight:1. in
  checkb "foreign handle rejected" true
    (match D.set_weight tr h 2. with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_draw_backends_agree () =
  (* identical weights in identical scan order must pick identical winners
     for every winning value, whatever the backend *)
  let weights = [| 3.; 0.; 7.; 2.; 5.; 0.; 1. |] in
  let n = Array.length weights in
  let lst =
    (* the list prepends: add backwards so scans run in index order *)
    let l = Ll.create ~order:Ll.Unordered () in
    for i = n - 1 downto 0 do
      ignore (Ll.add l ~client:i ~weight:weights.(i))
    done;
    D.of_list l
  in
  let tree = D.of_mode D.Tree in
  Array.iteri (fun i w -> ignore (D.add tree ~client:i ~weight:w)) weights;
  let total = Array.fold_left ( +. ) 0. weights in
  checkf "list total" total (D.total lst);
  checkf "tree total" total (D.total tree);
  let r = rng () in
  for _ = 1 to 2_000 do
    let v = Rng.float_unit r *. total in
    let winner t = Option.map D.client (D.draw_with_value t ~winning:v) in
    let wl = winner lst and wt = winner tree in
    if wl <> wt then
      Alcotest.failf "disagree at %.6f: list=%s tree=%s" v
        (match wl with Some i -> string_of_int i | None -> "-")
        (match wt with Some i -> string_of_int i | None -> "-")
  done

let test_draw_backend_distributions () =
  (* every backend must honour ticket proportions (chi-square) *)
  let weights = [| 10.; 2.; 5.; 1.; 2. |] in
  List.iter
    (fun (mode, name) ->
      let t = D.of_mode mode in
      Array.iteri (fun i w -> ignore (D.add t ~client:i ~weight:w)) weights;
      checkb
        (Printf.sprintf "%s chi-square ok" name)
        true
        (distribution_matches (fun r -> D.draw_client t r) weights ~draws:20_000))
    [ (D.List, "list"); (D.Tree, "tree") ]

(* --- slot and batch draws: draw_slot, draw_k ---------------------------------- *)

let test_draw_slot_matches_draw_client () =
  (* a draw_slot/client_at pair and a draw_client consume the same
     randomness and name the same winner on every backend *)
  let weights = [| 10.; 2.; 5.; 1.; 2. |] in
  List.iter
    (fun (mode, name) ->
      let mk () =
        let t = D.of_mode mode in
        Array.iteri (fun i w -> ignore (D.add t ~client:i ~weight:w)) weights;
        t
      in
      let t1 = mk () and t2 = mk () in
      let r1 = rng () and r2 = rng () in
      for _ = 1 to 1_000 do
        let s = D.draw_slot t1 r1 in
        checkb (name ^ " slot nonnegative") true (s >= 0);
        let via_slot = D.client_at t1 s in
        match D.draw_client t2 r2 with
        | Some c -> checki (name ^ " same winner") c via_slot
        | None -> Alcotest.fail "draw_client returned None"
      done)
    [ (D.List, "list"); (D.Tree, "tree") ]

let test_draw_k_matches_sequential () =
  (* one draw_k call and k sequential draw_slot calls are the same lottery
     sequence on every backend *)
  let weights = [| 3.; 7.; 2.; 5.; 1. |] in
  List.iter
    (fun (mode, name) ->
      let mk () =
        let t = D.of_mode mode in
        Array.iteri (fun i w -> ignore (D.add t ~client:i ~weight:w)) weights;
        t
      in
      let t1 = mk () and t2 = mk () in
      let r1 = rng () and r2 = rng () in
      let out = Array.make 64 (-1) in
      let n = D.draw_k t1 r1 ~k:64 out in
      checki (name ^ " batch filled") 64 n;
      for i = 0 to n - 1 do
        let s = D.draw_slot t2 r2 in
        checki
          (Printf.sprintf "%s draw %d matches sequential" name i)
          (D.client_at t2 s) out.(i)
      done)
    [ (D.List, "list"); (D.Tree, "tree") ]

let test_draw_k_empty_and_small () =
  List.iter
    (fun mode ->
      let t = D.of_mode mode in
      let out = Array.make 8 (-1) in
      checki "empty draws nothing" 0 (D.draw_k t (rng ()) ~k:8 out);
      ignore (D.add t ~client:1 ~weight:0.);
      checki "all-zero draws nothing" 0 (D.draw_k t (rng ()) ~k:8 out);
      ignore (D.add t ~client:2 ~weight:1.);
      checki "k capped by scratch length" 8 (D.draw_k t (rng ()) ~k:100 out);
      Array.iter (fun c -> checki "only funded client wins" 2 c) out)
    [ D.List; D.Tree ]

(* --- Section 2 guarantees --------------------------------------------------- *)

let test_binomial_moments () =
  (* n lotteries, client with p = t/T: E[w] = np, Var = np(1-p) *)
  let t = Ll.create () in
  ignore (Ll.add t ~client:`Us ~weight:3.);
  ignore (Ll.add t ~client:`Them ~weight:7.);
  let r = rng () in
  let runs = 300 and n = 200 in
  let wins = Array.make runs 0. in
  for run = 0 to runs - 1 do
    let w = ref 0 in
    for _ = 1 to n do
      if Ll.draw_client t r = Some `Us then incr w
    done;
    wins.(run) <- float_of_int !w
  done;
  let p = 0.3 in
  let mean = Core.Descriptive.mean wins in
  let var = Core.Descriptive.variance wins in
  checkb
    (Printf.sprintf "mean %f near np=%f" mean (float_of_int n *. p))
    true
    (abs_float (mean -. (float_of_int n *. p)) < 3.);
  checkb
    (Printf.sprintf "variance %f near np(1-p)=%f" var (float_of_int n *. p *. (1. -. p)))
    true
    (abs_float (var -. (float_of_int n *. p *. (1. -. p))) < 10.)

let test_geometric_first_win () =
  (* E[lotteries until first win] = 1/p *)
  let t = Ll.create () in
  ignore (Ll.add t ~client:`Us ~weight:1.);
  ignore (Ll.add t ~client:`Them ~weight:4.);
  let r = rng () in
  let trials = 3_000 in
  let total = ref 0 in
  for _ = 1 to trials do
    let n = ref 1 in
    while Ll.draw_client t r <> Some `Us do
      incr n
    done;
    total := !total + !n
  done;
  let avg = float_of_int !total /. float_of_int trials in
  checkb (Printf.sprintf "mean first win %f near 5" avg) true (abs_float (avg -. 5.) < 0.35)

let () =
  Alcotest.run "draw"
    [
      ( "list",
        [
          Alcotest.test_case "figure 1 walkthrough" `Quick test_figure1_walkthrough;
          Alcotest.test_case "move-to-front relocation" `Quick test_move_to_front;
          Alcotest.test_case "move-to-front shortens searches" `Quick
            test_mtf_shortens_searches;
          Alcotest.test_case "sorted order shortens searches" `Slow
            test_sorted_order_shortens_searches;
          Alcotest.test_case "add/remove/set_weight" `Quick test_list_add_remove_weights;
          Alcotest.test_case "empty and all-zero" `Quick test_list_empty_and_zero;
          Alcotest.test_case "zero weight never wins" `Quick test_zero_weight_never_wins;
          Alcotest.test_case "ticket-proportional (chi-square)" `Slow
            test_list_distribution;
          Alcotest.test_case "total exact after many mutations" `Quick
            test_list_total_stays_exact_over_many_mutations;
        ] );
      ( "tree",
        [
          Alcotest.test_case "prefix-sum selection" `Quick test_tree_matches_prefix_sums;
          Alcotest.test_case "update/remove/slot reuse/grow" `Quick
            test_tree_update_remove_reuse;
          Alcotest.test_case "ticket-proportional (chi-square)" `Slow
            test_tree_distribution;
          Alcotest.test_case "agrees with the list lottery" `Quick test_tree_and_list_agree;
          Alcotest.test_case "stable under float drift" `Quick test_tree_drift_stability;
          Alcotest.test_case "drift fallback is counted" `Quick
            test_tree_drift_fallback_counted;
        ] );
      ( "inverse",
        [
          Alcotest.test_case "paper formula probabilities" `Quick
            test_inverse_probabilities;
          Alcotest.test_case "distribution (chi-square)" `Slow test_inverse_distribution;
          Alcotest.test_case "fewer than two clients" `Quick test_inverse_small_cases;
          Alcotest.test_case "occupancy weighting" `Quick test_inverse_weighted_extra;
          Alcotest.test_case "set_tickets" `Quick test_inverse_set_tickets;
        ] );
      ( "unified-draw",
        [
          Alcotest.test_case "wrapper ops on every backend" `Quick
            test_draw_wrapper_ops;
          Alcotest.test_case "foreign handle rejected" `Quick
            test_draw_foreign_handle_rejected;
          Alcotest.test_case "backends agree on every winning value" `Quick
            test_draw_backends_agree;
          Alcotest.test_case "ticket-proportional on every backend (chi-square)"
            `Slow test_draw_backend_distributions;
        ] );
      ( "flat-backends",
        [
          Alcotest.test_case "draw_slot matches draw_client" `Quick
            test_draw_slot_matches_draw_client;
          Alcotest.test_case "draw_k matches sequential draws" `Quick
            test_draw_k_matches_sequential;
          Alcotest.test_case "draw_k empty/zero/capped" `Quick
            test_draw_k_empty_and_small;
        ] );
      ( "section-2-math",
        [
          Alcotest.test_case "binomial win moments" `Slow test_binomial_moments;
          Alcotest.test_case "geometric first-win expectation" `Slow
            test_geometric_first_win;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_tree_total_is_sum;
            qcheck_tree_draw_in_range;
            qcheck_tree_matches_reference_model;
            qcheck_tree_draw_for_draw;
          ] );
    ]
