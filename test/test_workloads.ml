(* Workload models: corpus generation and search, spinner accounting, the
   DB server/client pair, Monte-Carlo tasks, and the mutex contention
   harness. *)

open Core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let lottery_kernel = Fixtures.lottery_kernel

(* --- corpus ------------------------------------------------------------------ *)

let test_corpus_deterministic () =
  let a = Corpus.generate ~seed:1 ~size_bytes:4096 () in
  let b = Corpus.generate ~seed:1 ~size_bytes:4096 () in
  let c = Corpus.generate ~seed:2 ~size_bytes:4096 () in
  check Alcotest.string "same seed, same text" a b;
  checkb "different seed differs" true (a <> c)

let test_corpus_size_and_needle () =
  let text = Corpus.generate ~seed:3 ~size_bytes:20_000 ~needle:"lottery" ~occurrences:8 () in
  checkb "approx size" true (String.length text >= 20_000 && String.length text < 22_000);
  checki "planted occurrences" 8 (Corpus.count_substring ~haystack:text ~needle:"lottery")

let test_corpus_zero_occurrences () =
  let text = Corpus.generate ~seed:4 ~size_bytes:8192 ~needle:"lottery" ~occurrences:0 () in
  checki "no accidental occurrences" 0
    (Corpus.count_substring ~haystack:text ~needle:"lottery")

let test_count_substring_cases () =
  checki "simple" 2 (Corpus.count_substring ~haystack:"abcabc" ~needle:"abc");
  checki "case-insensitive" 3 (Corpus.count_substring ~haystack:"aAa" ~needle:"a");
  checki "non-overlapping" 2 (Corpus.count_substring ~haystack:"aaaa" ~needle:"aa");
  checki "missing" 0 (Corpus.count_substring ~haystack:"hello" ~needle:"xyz");
  checki "needle longer than haystack" 0 (Corpus.count_substring ~haystack:"ab" ~needle:"abc");
  checki "empty haystack" 0 (Corpus.count_substring ~haystack:"" ~needle:"x");
  Alcotest.check_raises "empty needle"
    (Invalid_argument "Corpus.count_substring: empty needle") (fun () ->
      ignore (Corpus.count_substring ~haystack:"x" ~needle:""))

(* --- spinner ------------------------------------------------------------------- *)

let test_spinner_accounting () =
  let k, ls = lottery_kernel ~seed:21 () in
  let s = Spinner.spawn k ~name:"s" ~cost:(Time.ms 2) () in
  ignore
    (Lottery_sched.fund_thread ls (Spinner.thread s) ~amount:10
       ~from:(Lottery_sched.base_currency ls));
  (* run one window past the measurement horizon so the final iteration's
     post-compute bookkeeping is not cut off at the boundary *)
  ignore (Kernel.run k ~until:(Time.seconds 10 + Time.ms 10));
  checkb "iterations = cpu / cost" true (Spinner.iterations s >= 5000);
  checkb "cpu" true (Kernel.cpu_time (Spinner.thread s) >= Time.seconds 10);
  let w = Spinner.windows s ~upto:(Time.seconds 10) in
  checki "10 windows" 10 (Array.length w);
  (* an iteration completing exactly on a window boundary lands in the next
     window, so each holds 500 +/- 1 *)
  Array.iter (fun c -> checkb "about 500 per window" true (abs (c - 500) <= 1)) w;
  let cum = Spinner.cumulative s ~upto:(Time.seconds 10) in
  checkb "cumulative total" true (abs (cum.(9) - 5000) <= 1);
  let rates = Spinner.rate_per_second s ~upto:(Time.seconds 10) in
  checkb "rate about 500/s" true (abs_float (rates.(0) -. 500.) <= 1.)

let test_spinner_start_at () =
  let k, ls = lottery_kernel ~seed:22 () in
  let s = Spinner.spawn k ~name:"late" ~cost:(Time.ms 1) ~start_at:(Time.seconds 5) () in
  ignore
    (Lottery_sched.fund_thread ls (Spinner.thread s) ~amount:10
       ~from:(Lottery_sched.base_currency ls));
  ignore (Kernel.run k ~until:(Time.seconds 10));
  checki "nothing before start" 0 (Spinner.iterations_between s ~lo:0 ~hi:(Time.seconds 5));
  checki "everything after" (Spinner.iterations s)
    (Spinner.iterations_between s ~lo:(Time.seconds 5) ~hi:(Time.seconds 10))

(* --- db ----------------------------------------------------------------------------- *)

let test_db_end_to_end () =
  let k, ls = lottery_kernel ~seed:23 () in
  let corpus = Corpus.generate ~seed:5 ~size_bytes:8192 ~needle:"zebra" ~occurrences:5 () in
  let server =
    Db.start_server k ~name:"db" ~workers:2 ~query_cost:(Time.ms 500) ~corpus ()
  in
  let client =
    Db.spawn_client k server ~name:"c" ~query:"zebra" ~max_queries:4
      ~start_at:(Time.ms 1) ()
  in
  ignore
    (Lottery_sched.fund_thread ls (Db.thread client) ~amount:100
       ~from:(Lottery_sched.base_currency ls));
  ignore (Kernel.run k ~until:(Time.seconds 30));
  checki "completions" 4 (Db.completions client);
  check (Alcotest.option Alcotest.int) "result is the real count" (Some 5)
    (Db.last_result client);
  checki "server counter" 4 (Db.queries_served server);
  checki "response series lengths" 4 (Array.length (Db.response_times client));
  checkb "client exited after max_queries" true
    (Kernel.thread_state (Db.thread client) = Types.Zombie);
  checkb "responses ~0.5s each" true
    (Array.for_all (fun r -> r >= 0.5 && r < 1.0) (Db.response_times client))

let test_db_mean_response_nan_before_first () =
  let k, _ls = lottery_kernel ~seed:24 () in
  let corpus = "tiny corpus" in
  let server = Db.start_server k ~name:"db" ~corpus () in
  let client = Db.spawn_client k server ~name:"c" ~query:"x" () in
  checkb "nan before completions" true (Float.is_nan (Db.mean_response_time client))

(* --- monte carlo --------------------------------------------------------------------- *)

let test_monte_carlo_estimates_quarter_pi () =
  let k, ls = lottery_kernel ~seed:26 () in
  let mc = Lottery_sched.make_currency ls "mc" in
  ignore
    (Lottery_sched.fund_currency ls ~target:mc ~amount:100
       ~from:(Lottery_sched.base_currency ls));
  let task =
    Monte_carlo.spawn k ls ~name:"mc"
      ~rng:(Rng.create ~algo:Splitmix64 ~seed:1 ())
      ~from:mc ()
  in
  ignore (Kernel.run k ~until:(Time.seconds 60));
  checkb "ran" true (Monte_carlo.trials task > 100_000);
  let est = Monte_carlo.estimate task in
  checkb
    (Printf.sprintf "estimate %f near pi/4" est)
    true
    (abs_float (est -. (Float.pi /. 4.)) < 0.01);
  checkb "error small and finite" true
    (Float.is_finite (Monte_carlo.relative_error task)
    && Monte_carlo.relative_error task < 0.01);
  checkb "ticket settled below max" true (Monte_carlo.current_ticket task < 1_000_000)

let test_monte_carlo_error_decreases () =
  let k, ls = lottery_kernel ~seed:27 () in
  let mc = Lottery_sched.make_currency ls "mc" in
  ignore
    (Lottery_sched.fund_currency ls ~target:mc ~amount:100
       ~from:(Lottery_sched.base_currency ls));
  let task =
    Monte_carlo.spawn k ls ~name:"mc"
      ~rng:(Rng.create ~algo:Splitmix64 ~seed:2 ())
      ~from:mc ()
  in
  ignore (Kernel.run k ~until:(Time.seconds 10));
  let e1 = Monte_carlo.relative_error task in
  let t1 = Monte_carlo.trials task in
  ignore (Kernel.run k ~until:(Time.seconds 40));
  let e2 = Monte_carlo.relative_error task in
  checkb "error decreased" true (e2 < e1);
  checkb "trials grew" true (Monte_carlo.trials task > t1);
  let cum = Monte_carlo.cumulative task ~upto:(Time.seconds 40) in
  let monotone = ref true in
  Array.iteri (fun i c -> if i > 0 && c < cum.(i - 1) then monotone := false) cum;
  checkb "cumulative is monotone" true !monotone

let test_monte_carlo_newcomer_outbids () =
  (* a task with converged error must hold a much smaller ticket than a
     fresh one *)
  let k, ls = lottery_kernel ~seed:28 () in
  let mc = Lottery_sched.make_currency ls "mc" in
  ignore
    (Lottery_sched.fund_currency ls ~target:mc ~amount:100
       ~from:(Lottery_sched.base_currency ls));
  let old_task =
    Monte_carlo.spawn k ls ~name:"old"
      ~rng:(Rng.create ~algo:Splitmix64 ~seed:3 ())
      ~from:mc ()
  in
  let newcomer =
    Monte_carlo.spawn k ls ~name:"new"
      ~rng:(Rng.create ~algo:Splitmix64 ~seed:4 ())
      ~from:mc ~start_at:(Time.seconds 30) ()
  in
  ignore (Kernel.run k ~until:(Time.seconds 30 + Time.ms 150));
  checkb "newcomer ticket dwarfs the old one" true
    (Monte_carlo.current_ticket newcomer > 50 * Monte_carlo.current_ticket old_task)

(* --- disk service -------------------------------------------------------------------- *)

module Ds = Core.Disk_service

let test_disk_service_basics () =
  let k, ls = lottery_kernel ~seed:30 () in
  let disk =
    Ds.start k ~rng:(Rng.create ~algo:Splitmix64 ~seed:31 ()) ~name:"disk"
      ~cylinders:100 ~seek_cost:(Time.us 10) ~transfer_cost:(Time.ms 1) ()
  in
  ignore (Kernel.run k ~until:(Time.us 1));
  let done_at = ref (-1) in
  let client =
    Kernel.spawn k ~name:"client" (fun () ->
        Ds.read disk ~cylinder:50;
        Ds.read disk ~cylinder:50;
        done_at := Api.now ())
  in
  ignore
    (Lottery_sched.fund_thread ls client ~amount:100
       ~from:(Lottery_sched.base_currency ls));
  ignore (Kernel.run k ~until:(Time.seconds 5));
  checki "reads accounted" 2 (Ds.reads_completed disk client);
  checki "total" 2 (Ds.total_reads disk);
  checki "head followed the reads" 50 (Ds.head_position disk);
  (* first read seeks 50 cylinders (500us) + 1ms; second has zero seek *)
  checkb "service time charged" true (!done_at >= Time.us 2500);
  checkb "no failures" true (Kernel.failures k = [])

let test_disk_service_validation () =
  let k, _ls = lottery_kernel ~seed:32 () in
  let disk =
    Ds.start k ~rng:(Rng.create ~algo:Splitmix64 ~seed:33 ()) ~name:"disk"
      ~cylinders:10 ()
  in
  ignore
    (Kernel.spawn k ~name:"bad" (fun () -> Ds.read disk ~cylinder:10));
  ignore (Kernel.run k ~until:(Time.seconds 1));
  checkb "range error recorded" true
    (match Kernel.failures k with [ (_, Invalid_argument _) ] -> true | _ -> false);
  let th = Kernel.spawn k ~name:"x" (fun () -> ()) in
  checkb "negative tickets rejected" true
    (match Ds.set_disk_tickets disk th (-1) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- mutex workload -------------------------------------------------------------------- *)

let test_mutex_workload_records () =
  let k, ls = lottery_kernel ~seed:29 () in
  let m = Kernel.create_mutex k ~policy:Types.Lottery_wake "m" in
  let c1 = Mutex_workload.spawn_contender k ~mutex:m ~name:"c1" () in
  let c2 = Mutex_workload.spawn_contender k ~mutex:m ~name:"c2" () in
  List.iter
    (fun c ->
      ignore
        (Lottery_sched.fund_thread ls (Mutex_workload.thread c) ~amount:100
           ~from:(Lottery_sched.base_currency ls)))
    [ c1; c2 ];
  ignore (Kernel.run k ~until:(Time.seconds 30));
  checkb "both acquired" true
    (Mutex_workload.acquisitions c1 > 0 && Mutex_workload.acquisitions c2 > 0);
  checki "one wait sample per acquisition" (Mutex_workload.acquisitions c1)
    (Array.length (Mutex_workload.waiting_times c1));
  checkb "waits nonnegative" true
    (Array.for_all (fun w -> w >= 0.) (Mutex_workload.waiting_times c1));
  checkb "mean finite" true (Float.is_finite (Mutex_workload.mean_wait c1));
  (* conservation: total hold time can't exceed the horizon *)
  let total_holds =
    (Mutex_workload.acquisitions c1 + Mutex_workload.acquisitions c2) * Time.ms 50
  in
  checkb "hold time bounded by horizon" true (total_holds <= Time.seconds 30)

let () =
  Alcotest.run "workloads"
    [
      ( "corpus",
        [
          Alcotest.test_case "deterministic" `Quick test_corpus_deterministic;
          Alcotest.test_case "size and planted needle" `Quick test_corpus_size_and_needle;
          Alcotest.test_case "zero occurrences possible" `Quick test_corpus_zero_occurrences;
          Alcotest.test_case "count_substring edge cases" `Quick test_count_substring_cases;
        ] );
      ( "spinner",
        [
          Alcotest.test_case "iteration accounting" `Quick test_spinner_accounting;
          Alcotest.test_case "delayed start" `Quick test_spinner_start_at;
        ] );
      ( "db",
        [
          Alcotest.test_case "end-to-end query results" `Quick test_db_end_to_end;
          Alcotest.test_case "nan before first completion" `Quick
            test_db_mean_response_nan_before_first;
        ] );
      ( "monte-carlo",
        [
          Alcotest.test_case "estimates pi/4" `Quick test_monte_carlo_estimates_quarter_pi;
          Alcotest.test_case "error decreases with trials" `Quick
            test_monte_carlo_error_decreases;
          Alcotest.test_case "newcomer outbids converged task" `Quick
            test_monte_carlo_newcomer_outbids;
        ] );
      ( "disk-service",
        [
          Alcotest.test_case "reads, seek accounting" `Quick test_disk_service_basics;
          Alcotest.test_case "validation" `Quick test_disk_service_validation;
        ] );
      ( "mutex-workload",
        [ Alcotest.test_case "recording and conservation" `Quick test_mutex_workload_records ] );
    ]
