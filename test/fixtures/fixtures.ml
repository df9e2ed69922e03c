(* Worlds and readers that several test executables share: the lottery
   kernel, the compute-bound thread, live words, the churn and RPC worlds,
   the exact word count, and the OBS_BUDGET.txt reader. *)

open Core

(* A lottery ([Lottery_sched.create]'s defaults unless told otherwise,
   [shards] of them when given) behind a kernel of [cpus] virtual CPUs. *)
let lottery_kernel ?mode ?use_compensation ?quantum ?placement ?(migration = true)
    ?shards ?(cpus = 1) ~seed () =
  let rng = Rng.create ~seed () in
  let ls = Lottery_sched.create ?mode ?use_compensation ?shards ~rng () in
  Lottery_sched.set_migration_enabled ls migration;
  (match placement with
  | Some f -> Lottery_sched.set_placement_hook ls (Some f)
  | None -> ());
  (Kernel.create ?quantum ~cpus ~sched:(Lottery_sched.sched ls) (), ls)

(* a thread that computes [q] at a time, forever *)
let spin ?(q = Time.ms 1) k name =
  Kernel.spawn k ~name (fun () ->
      while true do
        Api.compute q
      done)

let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

(* The churn world (a funded thread spawned every 10 ms, the oldest beyond
   32 killed) in [mode] with [attach]'s subscribers, run to T = 20 s and to 2T:
   live words grown per kill between the two. A kill left 27-30 words
   live in the kernel while [Kernel.failures] kept killed threads, and
   ~1,810 with a [Metrics] registry that kept every row. *)
let churn_growth ?mode attach =
  let k, ls = lottery_kernel ?mode ~quantum:(Time.ms 10) ~seed:7 () in
  let subs = attach (Kernel.bus k) in
  let c = Churn.create ls k in
  Churn.run c ~until:(Time.seconds 20);
  let w1 = live_words () and k1 = Churn.kills c in
  Churn.run c ~until:(Time.seconds 40);
  let w2 = live_words () and k2 = Churn.kills c in
  ignore (Sys.opaque_identity (subs, k, ls));
  if k1 < 1900 || k2 - k1 < 1900 then failwith "the churn world stopped killing";
  float_of_int (w2 - w1) /. float_of_int (k2 - k1)

(* The RPC-heavy kernel quantum the span tracer taxes most: four
   client/server pairs ping-ponging continuously with 1 ms of service per
   request, so one quantum carries dozens of RPC round trips. [attach]
   subscribes to the bus, or leaves it idle (event construction then
   compiles to one branch). *)
let rpc_quantum attach =
  let k, ls = lottery_kernel ~mode:Lottery_sched.List_mode ~seed:3 () in
  let base = Lottery_sched.base_currency ls in
  let fund th = ignore (Lottery_sched.fund_thread ls th ~amount:100 ~from:base) in
  for i = 1 to 4 do
    let port = Kernel.create_port k ~name:(Printf.sprintf "p%d" i) in
    fund
      (Kernel.spawn k ~name:(Printf.sprintf "srv%d" i) (fun () ->
           while true do
             let m = Api.receive port in
             Api.compute (Time.ms 1);
             Api.reply m m.Types.payload
           done));
    fund
      (Kernel.spawn k ~name:(Printf.sprintf "cli%d" i) (fun () ->
           while true do
             ignore (Api.rpc port "x")
           done))
  done;
  attach (Kernel.bus k);
  fun () -> ignore (Kernel.run k ~until:(Kernel.now k + Time.ms 100))

(* Exact minor words per operation: [Gc.minor_words] around [ops] runs of
   [op] after [warm] unmeasured ones. Not a Bechamel fit: Bechamel's
   [minor_allocated] reads [Gc.quick_stat], whose minor word count only
   advances at a minor collection under OCaml 5, so an operation that
   allocates far less than a minor heap per sample fits to zero whatever
   it allocates. *)
let exact_words ?(warm = 200) ?(ops = 2000) op =
  for _ = 1 to warm do
    op ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to ops do
    op ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int ops

(* The one host-time row: a ratio of two Bechamel fits, checked outside
   [dune runtest] by test/spans_over_off.exe. *)
let spans_row = "obs-overhead/spans-over-off"

(* A budget file: one "row max" pair per line, blank lines and [#]
   comments skipped. A malformed line or value, or a row budgeted twice,
   raises [Failure] naming [path] and the line. *)
let parse_budget path text =
  let first = Hashtbl.create 32 in
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (n, line) ->
         let fail fmt =
           Printf.ksprintf (fun m -> failwith (Printf.sprintf "%s:%d: %s" path n m)) fmt
         in
         if line = "" || line.[0] = '#' then None
         else
           match List.filter (( <> ) "") (String.split_on_char ' ' line) with
           | [ name; v ] -> (
               match (float_of_string_opt v, Hashtbl.find_opt first name) with
               | None, _ -> fail "bad budget value %S" v
               | Some _, Some m -> fail "%s is budgeted twice (first at line %d)" name m
               | Some max_v, None ->
                   Hashtbl.add first name n;
                   Some (name, max_v))
           | _ -> fail "bad budget line %S" line)

let read_budget path =
  parse_budget path (In_channel.with_open_text path In_channel.input_all)
