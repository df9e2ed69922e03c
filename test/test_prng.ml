(* PRNG tests: the Park–Miller generator against its published check value,
   plus the generic Rng layer (bounds, uniformity, determinism). *)

module Pm = Core.Park_miller
module Sm = Core.Splitmix64
module Xo = Core.Xoshiro256
module Rng = Core.Rng
module Chi = Core.Chi_square

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* --- Park–Miller -------------------------------------------------------- *)

let test_pm_known_sequence () =
  (* First outputs from seed 1: 16807, 282475249, 1622650073, ... *)
  let g = Pm.create ~seed:1 in
  checki "step 1" 16807 (Pm.next g);
  checki "step 2" 282475249 (Pm.next g);
  checki "step 3" 1622650073 (Pm.next g)

let test_pm_park_miller_check_value () =
  (* The original CACM paper's correctness test: starting from seed 1,
     the 10,000th output must be 1043618065. *)
  let g = Pm.create ~seed:1 in
  let last = ref 0 in
  for _ = 1 to 10_000 do
    last := Pm.next g
  done;
  checki "10000th value" 1043618065 !last

let test_pm_range () =
  let g = Pm.create ~seed:123456 in
  for _ = 1 to 10_000 do
    let x = Pm.next g in
    if x < 1 || x >= Pm.modulus then Alcotest.failf "out of range: %d" x
  done

let test_pm_seed_normalization () =
  (* Zero and multiples of the modulus-1 must not produce the absorbing
     state 0. *)
  List.iter
    (fun seed ->
      let g = Pm.create ~seed in
      let s = Pm.state g in
      checkb "state in range" true (s >= 1 && s < Pm.modulus);
      ignore (Pm.next g))
    [ 0; Pm.modulus - 1; -1; -Pm.modulus; max_int; min_int + 1 ]

let test_pm_set_state () =
  let g = Pm.create ~seed:1 in
  Pm.set_state g 42;
  checki "state readback" 42 (Pm.state g);
  Alcotest.check_raises "zero rejected" (Invalid_argument "Park_miller.set_state: out of range")
    (fun () -> Pm.set_state g 0)

let test_pm_copy_independent () =
  let g = Pm.create ~seed:7 in
  ignore (Pm.next g);
  let h = Pm.copy g in
  let a = Pm.next g in
  let b = Pm.next h in
  checki "copies advance identically" a b;
  ignore (Pm.next g);
  checki "original advanced independently" b (Pm.state h)

(* --- SplitMix64 / Xoshiro ------------------------------------------------ *)

let test_splitmix_reference () =
  (* Published reference outputs for seed 1234567. *)
  let g = Sm.create ~seed:1234567 in
  check Alcotest.int64 "out 1" 6457827717110365317L (Sm.next_int64 g);
  check Alcotest.int64 "out 2" 3203168211198807973L (Sm.next_int64 g)

let test_splitmix_determinism () =
  let a = Sm.create ~seed:99 and b = Sm.create ~seed:99 in
  for i = 1 to 100 do
    check Alcotest.int64 (Printf.sprintf "step %d" i) (Sm.next_int64 a) (Sm.next_int64 b)
  done

let test_xoshiro_nonzero_and_deterministic () =
  let a = Xo.create ~seed:5 and b = Xo.create ~seed:5 in
  let all_zero = ref true in
  for _ = 1 to 1000 do
    let x = Xo.next_int64 a and y = Xo.next_int64 b in
    check Alcotest.int64 "same stream" x y;
    if x <> 0L then all_zero := false
  done;
  checkb "produces nonzero output" false !all_zero

let test_xoshiro_copy () =
  let a = Xo.create ~seed:13 in
  ignore (Xo.next_int64 a);
  let b = Xo.copy a in
  check Alcotest.int64 "same next output" (Xo.next_int64 a) (Xo.next_int64 b)

(* --- Rng generic layer --------------------------------------------------- *)

let algos = [ Rng.Park_miller; Rng.Splitmix64; Rng.Xoshiro256pp ]

let each_algo f = List.iter (fun algo -> f (Rng.create ~algo ~seed:2024 ())) algos

let test_int_below_bounds () =
  each_algo (fun rng ->
      List.iter
        (fun n ->
          for _ = 1 to 2_000 do
            let x = Rng.int_below rng n in
            if x < 0 || x >= n then
              Alcotest.failf "%s: int_below %d gave %d" (Rng.name rng) n x
          done)
        [ 1; 2; 3; 7; 100; 1_000_000 ])

let test_int_below_errors () =
  each_algo (fun rng ->
      Alcotest.check_raises "zero" (Invalid_argument "Rng.int_below: n <= 0")
        (fun () -> ignore (Rng.int_below rng 0));
      Alcotest.check_raises "negative" (Invalid_argument "Rng.int_below: n <= 0")
        (fun () -> ignore (Rng.int_below rng (-5))))

let test_int_below_large_park_miller () =
  (* beyond the single-draw range: exercises the two-draw composition *)
  let rng = Rng.create ~algo:Park_miller ~seed:5 () in
  let n = 1 lsl 40 in
  for _ = 1 to 1_000 do
    let x = Rng.int_below rng n in
    checkb "in range" true (x >= 0 && x < n)
  done

let test_int_below_uniformity () =
  each_algo (fun rng ->
      let n = 10 in
      let observed = Array.make n 0 in
      for _ = 1 to 20_000 do
        let x = Rng.int_below rng n in
        observed.(x) <- observed.(x) + 1
      done;
      let weights = Array.make n 1. in
      checkb
        (Printf.sprintf "%s uniform by chi-square" (Rng.name rng))
        true
        (Chi.goodness_of_fit ~observed ~weights ()))

let test_int_in () =
  each_algo (fun rng ->
      for _ = 1 to 1_000 do
        let x = Rng.int_in rng ~lo:(-5) ~hi:5 in
        checkb "in [-5,5]" true (x >= -5 && x <= 5)
      done;
      Alcotest.check_raises "hi < lo" (Invalid_argument "Rng.int_in: hi < lo")
        (fun () -> ignore (Rng.int_in rng ~lo:3 ~hi:2)))

let test_float_unit () =
  each_algo (fun rng ->
      let sum = ref 0. in
      for _ = 1 to 10_000 do
        let x = Rng.float_unit rng in
        checkb "in [0,1)" true (x >= 0. && x < 1.);
        sum := !sum +. x
      done;
      let mean = !sum /. 10_000. in
      checkb
        (Printf.sprintf "%s mean near 0.5 (got %f)" (Rng.name rng) mean)
        true
        (abs_float (mean -. 0.5) < 0.02))

let test_bool_balance () =
  each_algo (fun rng ->
      let trues = ref 0 in
      for _ = 1 to 10_000 do
        if Rng.bool rng then incr trues
      done;
      checkb "roughly balanced" true (abs (!trues - 5000) < 300))

let test_exponential () =
  let rng = Rng.create ~seed:3 () in
  let sum = ref 0. in
  for _ = 1 to 20_000 do
    let x = Rng.exponential rng ~mean:2.5 in
    checkb "nonnegative" true (x >= 0.);
    sum := !sum +. x
  done;
  checkb "mean near 2.5" true (abs_float ((!sum /. 20_000.) -. 2.5) < 0.1);
  Alcotest.check_raises "bad mean" (Invalid_argument "Rng.exponential: mean <= 0")
    (fun () -> ignore (Rng.exponential rng ~mean:0.))

let test_gaussian () =
  let rng = Rng.create ~algo:Splitmix64 ~seed:4 () in
  let stats = Core.Descriptive.Running.create () in
  for _ = 1 to 20_000 do
    Core.Descriptive.Running.add stats (Rng.gaussian rng ~mu:10. ~sigma:3.)
  done;
  checkb "mean near 10" true
    (abs_float (Core.Descriptive.Running.mean stats -. 10.) < 0.1);
  checkb "stddev near 3" true
    (abs_float (Core.Descriptive.Running.stddev stats -. 3.) < 0.1)

let test_shuffle_is_permutation () =
  let rng = Rng.create ~seed:77 () in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 50 Fun.id) sorted

let test_shuffle_uniform_first_element () =
  let rng = Rng.create ~seed:78 () in
  let n = 6 in
  let observed = Array.make n 0 in
  for _ = 1 to 12_000 do
    let arr = Array.init n Fun.id in
    Rng.shuffle rng arr;
    observed.(arr.(0)) <- observed.(arr.(0)) + 1
  done;
  checkb "first element uniform" true
    (Chi.goodness_of_fit ~observed ~weights:(Array.make n 1.) ())

let test_choose () =
  let rng = Rng.create ~seed:9 () in
  for _ = 1 to 100 do
    let x = Rng.choose rng [| 1; 2; 3 |] in
    checkb "member" true (List.mem x [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng ([||] : int array)))

let test_raw_bounds_and_algo () =
  each_algo (fun rng ->
      let range = Rng.raw_range rng in
      checkb "range sane" true (range > 1);
      for _ = 1 to 1_000 do
        let r = Rng.raw rng in
        checkb "raw below range" true (r >= 0 && r < range)
      done);
  let rng = Rng.create ~algo:Xoshiro256pp ~seed:1 () in
  checkb "algo accessor" true (Rng.algo rng = Rng.Xoshiro256pp);
  check Alcotest.string "name" "xoshiro256++" (Rng.name rng)

let test_copy_and_split () =
  each_algo (fun rng ->
      ignore (Rng.raw rng);
      let c = Rng.copy rng in
      checki "copy same draw" (Rng.raw rng) (Rng.raw c);
      let s = Rng.split rng in
      checkb "split has same algo" true (Rng.algo s = Rng.algo rng);
      (* the split stream should not mirror the parent *)
      let same = ref 0 in
      for _ = 1 to 50 do
        if Rng.int_below rng 1000 = Rng.int_below s 1000 then incr same
      done;
      checkb "split diverges" true (!same < 10))

let test_determinism_across_create () =
  each_algo (fun rng ->
      let rng' = Rng.create ~algo:(Rng.algo rng) ~seed:2024 () in
      for _ = 1 to 100 do
        checki "same stream from same seed" (Rng.raw rng) (Rng.raw rng')
      done)

let test_serial_correlation () =
  (* lag-1 autocorrelation of normalized outputs should be near zero for
     every generator *)
  each_algo (fun rng ->
      let n = 20_000 in
      let xs = Array.init n (fun _ -> Rng.float_unit rng) in
      let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
      let num = ref 0. and den = ref 0. in
      for i = 0 to n - 2 do
        num := !num +. ((xs.(i) -. mean) *. (xs.(i + 1) -. mean))
      done;
      Array.iter (fun x -> den := !den +. ((x -. mean) ** 2.)) xs;
      let rho = !num /. !den in
      checkb
        (Printf.sprintf "%s lag-1 correlation %.4f small" (Rng.name rng) rho)
        true
        (abs_float rho < 0.03))

(* --- stream golden --------------------------------------------------------- *)

(* The exact values every derived draw takes from each generator, pinned in
   rng_golden.expected: any change to how int_below (and the draws built on
   it) consumes the stream shows up as a diff. The sizes cover the
   single-draw path at small, odd and rejection-heavy n (just above half the
   raw range, where about half the raw draws are rejected) and, for
   Park–Miller, the two-draw composition once n exceeds its 2^31 - 2 single
   range. Each block ends with the next raw draw, so a change in how many
   raw draws a call took is caught even when the values agree. *)
let golden_sizes rng =
  let range = Rng.raw_range rng in
  let common =
    [ 1; 2; 3; 7; 10; 1000; (1 lsl 20) + 1; (range / 2) + 1; range - 1; range ]
  in
  match Rng.algo rng with
  | Rng.Park_miller ->
      common @ [ range + 1; 1 lsl 40; (1 lsl 53) + 1; range * range / 2 + 1; range * range ]
  | Rng.Splitmix64 | Rng.Xoshiro256pp -> common @ [ 1 lsl 40; (1 lsl 53) + 1 ]

let golden_output () =
  let buf = Buffer.create 8192 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let ints xs = String.concat " " (List.map string_of_int xs) in
  let draws n f = List.init n (fun _ -> f ()) in
  List.iter
    (fun algo ->
      List.iter
        (fun seed ->
          let rng = Rng.create ~algo ~seed () in
          line "# %s seed %d" (Rng.name rng) seed;
          List.iter
            (fun n -> line "int_below %d: %s" n (ints (draws 6 (fun () -> Rng.int_below rng n))))
            (golden_sizes rng);
          line "int_in -5..5: %s" (ints (draws 12 (fun () -> Rng.int_in rng ~lo:(-5) ~hi:5)));
          line "int_in 100..107: %s"
            (ints (draws 8 (fun () -> Rng.int_in rng ~lo:100 ~hi:107)));
          line "bool: %s"
            (String.concat ""
               (draws 32 (fun () -> if Rng.bool rng then "1" else "0")));
          let arr = Array.init 12 Fun.id in
          Rng.shuffle rng arr;
          line "shuffle 12: %s" (ints (Array.to_list arr));
          line "choose: %s"
            (ints (draws 8 (fun () -> Rng.choose rng [| 10; 20; 30; 40; 50 |])));
          let child = Rng.split rng in
          line "split child raw: %s" (ints (draws 4 (fun () -> Rng.raw child)));
          line "split child int_below 1000: %s"
            (ints (draws 4 (fun () -> Rng.int_below child 1000)));
          line "next raw: %d" (Rng.raw rng))
        [ 1; 2024 ])
    algos;
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_golden () =
  check Alcotest.string "derived draws consume the stream as recorded"
    (read_file
       (Filename.concat (Filename.dirname Sys.executable_name) "rng_golden.expected"))
    (golden_output ())

(* --- qcheck properties --------------------------------------------------- *)

let qcheck_int_below_in_range =
  QCheck.Test.make ~name:"int_below always lands in [0, n)" ~count:500
    QCheck.(pair (int_bound 1_000_000) small_int)
    (fun (n, seed) ->
      let n = n + 1 in
      let rng = Rng.create ~seed ()
      and rng2 = Rng.create ~algo:Splitmix64 ~seed () in
      let x = Rng.int_below rng n and y = Rng.int_below rng2 n in
      x >= 0 && x < n && y >= 0 && y < n)

let qcheck_pm_state_stays_valid =
  QCheck.Test.make ~name:"park-miller state stays in [1, m-1]" ~count:200
    QCheck.small_int
    (fun seed ->
      let g = Pm.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let s = Pm.next g in
        if s < 1 || s >= Pm.modulus then ok := false
      done;
      !ok)

let qcheck_shuffle_preserves_elements =
  QCheck.Test.make ~name:"shuffle preserves the multiset" ~count:200
    QCheck.(pair (list small_int) small_int)
    (fun (xs, seed) ->
      let rng = Rng.create ~seed () in
      let arr = Array.of_list xs in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let () =
  match Sys.argv with
  | [| _; "--print-golden" |] ->
      print_string (golden_output ());
      exit 0
  | _ -> ()

let () =
  Alcotest.run "prng"
    [
      ("golden", [ Alcotest.test_case "derived draws, all three generators" `Quick test_golden ]);
      ( "park-miller",
        [
          Alcotest.test_case "first outputs from seed 1" `Quick test_pm_known_sequence;
          Alcotest.test_case "CACM 10000-step check value" `Quick
            test_pm_park_miller_check_value;
          Alcotest.test_case "outputs stay in [1, m-1]" `Quick test_pm_range;
          Alcotest.test_case "seed normalization avoids state 0" `Quick
            test_pm_seed_normalization;
          Alcotest.test_case "set_state validates" `Quick test_pm_set_state;
          Alcotest.test_case "copy is independent" `Quick test_pm_copy_independent;
        ] );
      ( "splitmix64-xoshiro",
        [
          Alcotest.test_case "splitmix reference outputs" `Quick test_splitmix_reference;
          Alcotest.test_case "splitmix deterministic" `Quick test_splitmix_determinism;
          Alcotest.test_case "xoshiro nonzero & deterministic" `Quick
            test_xoshiro_nonzero_and_deterministic;
          Alcotest.test_case "xoshiro copy" `Quick test_xoshiro_copy;
        ] );
      ( "rng",
        [
          Alcotest.test_case "int_below bounds" `Quick test_int_below_bounds;
          Alcotest.test_case "int_below rejects bad n" `Quick test_int_below_errors;
          Alcotest.test_case "int_below beyond 2^31 (two-draw)" `Quick
            test_int_below_large_park_miller;
          Alcotest.test_case "int_below uniform (chi-square)" `Slow
            test_int_below_uniformity;
          Alcotest.test_case "int_in inclusive bounds" `Quick test_int_in;
          Alcotest.test_case "float_unit range and mean" `Quick test_float_unit;
          Alcotest.test_case "bool balanced" `Quick test_bool_balance;
          Alcotest.test_case "exponential mean" `Quick test_exponential;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "shuffle uniform first slot" `Slow
            test_shuffle_uniform_first_element;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "raw bounds and algo accessors" `Quick
            test_raw_bounds_and_algo;
          Alcotest.test_case "copy and split" `Quick test_copy_and_split;
          Alcotest.test_case "same seed, same stream" `Quick
            test_determinism_across_create;
          Alcotest.test_case "lag-1 serial correlation" `Slow test_serial_correlation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_int_below_in_range;
            qcheck_pm_state_stays_valid;
            qcheck_shuffle_preserves_elements;
          ] );
    ]
