(* Observability subsystem: event bus fan-out, ring-buffer recorder and its
   exporters, the metrics registry, and end-to-end determinism of the typed
   event stream. *)

open Core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let actor name tid = Obs.Event.actor_of ~tid ~tname:name

let select name tid = Obs.Event.Select { who = actor name tid; cpu = 0 }

(* --- minimal JSON validity checker ----------------------------------------- *)

(* enough of RFC 8259 to reject anything Chrome's trace loader would: a
   recursive-descent scan that must consume the entire string *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then advance () else raise Exit in
  let literal w = String.iter expect w in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> raise Exit
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> raise Exit
              done;
              go ()
          | _ -> raise Exit)
      | Some c when Char.code c < 0x20 -> raise Exit (* raw control char *)
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            saw := true;
            advance ();
            go ()
        | _ -> if not !saw then raise Exit
      in
      go ()
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise Exit);
    skip_ws ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        match peek () with
        | Some ',' ->
            advance ();
            members ()
        | _ -> expect '}'
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elements () =
        value ();
        match peek () with
        | Some ',' ->
            advance ();
            elements ()
        | _ -> expect ']'
      in
      elements ()
  in
  match value () with
  | () -> !pos = n
  | exception Exit -> false

let count_substring hay needle =
  let nl = String.length needle in
  let rec go from acc =
    match String.index_from_opt hay from needle.[0] with
    | None -> acc
    | Some i ->
        if i + nl <= String.length hay && String.sub hay i nl = needle then
          go (i + 1) (acc + 1)
        else go (i + 1) acc
  in
  if nl = 0 then 0 else go 0 0

let test_json_checker_self_test () =
  List.iter
    (fun s -> checkb s true (json_valid s))
    [
      "[]"; "{}"; "[1,2.5,-3e4]"; {|{"a":"b\"c","d":[true,false,null]}|};
      {|[{"name":"A"}]|}; " [ 1 , 2 ] ";
    ];
  List.iter
    (fun s -> checkb s false (json_valid s))
    [ ""; "["; "[1,]"; {|{"a":}|}; {|{"a" 1}|}; "[1] trailing"; "{'a':1}";
      "[\"raw\nnewline\"]" ]

(* --- bus -------------------------------------------------------------------- *)

let test_bus_fanout_and_unsubscribe () =
  let bus = Obs.Bus.create () in
  checkb "idle bus inactive" false (Obs.Bus.active bus);
  let got1 = ref [] and got2 = ref [] in
  let s1 = Obs.Bus.subscribe ~name:"one" bus (fun t e -> got1 := (t, e) :: !got1) in
  let _s2 = Obs.Bus.subscribe ~name:"two" bus (fun t e -> got2 := (t, e) :: !got2) in
  checkb "active with subscribers" true (Obs.Bus.active bus);
  checki "count" 2 (Obs.Bus.subscriber_count bus);
  check (Alcotest.list Alcotest.string) "names" [ "one"; "two" ]
    (Obs.Bus.subscribers bus);
  Obs.Bus.emit bus ~time:1 (select "a" 0);
  Obs.Bus.emit bus ~time:2 (select "b" 1);
  checki "both delivered to one" 2 (List.length !got1);
  checkb "identical streams" true (!got1 = !got2);
  Obs.Bus.unsubscribe s1;
  Obs.Bus.unsubscribe s1;
  (* idempotent *)
  checki "one left" 1 (Obs.Bus.subscriber_count bus);
  Obs.Bus.emit bus ~time:3 (select "c" 2);
  checki "unsubscribed sees nothing new" 2 (List.length !got1);
  checki "survivor still receives" 3 (List.length !got2)

let test_bus_churn_during_delivery () =
  (* a subscriber unsubscribing itself mid-delivery must not disturb the
     current emission *)
  let bus = Obs.Bus.create () in
  let sub = ref None in
  let fired = ref 0 and other = ref 0 in
  sub :=
    Some
      (Obs.Bus.subscribe bus (fun _ _ ->
           incr fired;
           Option.iter Obs.Bus.unsubscribe !sub));
  let _keep = Obs.Bus.subscribe bus (fun _ _ -> incr other) in
  Obs.Bus.emit bus ~time:1 (select "a" 0);
  Obs.Bus.emit bus ~time:2 (select "b" 0);
  checki "self-removing subscriber fired once" 1 !fired;
  checki "other subscriber saw every emission" 2 !other

let test_bus_subscribe_during_delivery () =
  (* a subscriber added while an emission is being delivered must not see
     that emission — emit works from a snapshot — but must see the next *)
  let bus = Obs.Bus.create () in
  let late = ref 0 and first = ref 0 in
  let _s =
    Obs.Bus.subscribe bus (fun _ _ ->
        incr first;
        if !first = 1 then
          ignore (Obs.Bus.subscribe ~name:"late" bus (fun _ _ -> incr late)))
  in
  Obs.Bus.emit bus ~time:1 (select "a" 0);
  checki "mid-emit subscriber missed the current emission" 0 !late;
  checki "but is registered" 2 (Obs.Bus.subscriber_count bus);
  Obs.Bus.emit bus ~time:2 (select "b" 0);
  checki "and receives from the next one on" 1 !late;
  checki "existing subscriber saw both" 2 !first

(* --- recorder --------------------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Obs.Recorder.create ~capacity:8 () in
  for i = 1 to 20 do
    Obs.Recorder.record r i (select (Printf.sprintf "t%d" i) i)
  done;
  checki "capacity" 8 (Obs.Recorder.capacity r);
  checki "length capped" 8 (Obs.Recorder.length r);
  checki "seen counts everything" 20 (Obs.Recorder.seen r);
  checki "dropped" 12 (Obs.Recorder.dropped r);
  let times = List.map fst (Obs.Recorder.events r) in
  check (Alcotest.list Alcotest.int) "oldest-first window"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ] times;
  Obs.Recorder.clear r;
  checki "clear empties" 0 (Obs.Recorder.length r);
  checki "clear resets accounting" 0 (Obs.Recorder.dropped r)

let test_chrome_json_valid_and_escaped () =
  let r = Obs.Recorder.create ~capacity:64 () in
  let nasty = "we\"ird\\name\ttab" in
  let a = actor nasty 0 in
  Obs.Recorder.record r 0 (Obs.Event.Spawn { who = a });
  Obs.Recorder.record r 0 (Obs.Event.Select { who = a; cpu = 0 });
  Obs.Recorder.record r 100 (Obs.Event.Block { who = a; on = "sleep" });
  Obs.Recorder.record r 100
    (Obs.Event.Preempt { who = a; used = 100; quantum = 250; why = Obs.Event.End_block });
  Obs.Recorder.record r 150 (Obs.Event.Wake { who = a });
  Obs.Recorder.record r 150 (Obs.Event.Select { who = a; cpu = 0 });
  (* no final Preempt: the exporter must close the dangling slice itself *)
  let json = Obs.Recorder.to_chrome_json r in
  checkb "valid JSON" true (json_valid json);
  checkb "quotes and backslashes escaped" true
    (count_substring json {|we\"ird\\name\ttab|} > 0);
  checki "balanced B/E pairs" (count_substring json {|"ph":"B"|})
    (count_substring json {|"ph":"E"|});
  checki "thread_name metadata once" 1 (count_substring json "thread_name")

let test_chrome_json_wrapped_open_slice () =
  (* wraparound can evict a Select whose matching Preempt survived; the E
     must then be suppressed, not emitted unbalanced *)
  let r = Obs.Recorder.create ~capacity:2 () in
  let a = actor "w" 0 in
  Obs.Recorder.record r 0 (Obs.Event.Select { who = a; cpu = 0 });
  Obs.Recorder.record r 100
    (Obs.Event.Preempt { who = a; used = 100; quantum = 100; why = Obs.Event.End_quantum });
  Obs.Recorder.record r 100 (Obs.Event.Select { who = a; cpu = 0 });
  Obs.Recorder.record r 200
    (Obs.Event.Preempt { who = a; used = 100; quantum = 100; why = Obs.Event.End_quantum });
  (* window now holds [Select@100; Preempt@200] -- wait, capacity 2 keeps the
     last two events: Select@100 and Preempt@200, a matched pair. Push once
     more so the window is [Preempt@200; Select@200] and the orphan Preempt
     leads. *)
  Obs.Recorder.record r 200 (Obs.Event.Select { who = a; cpu = 0 });
  let json = Obs.Recorder.to_chrome_json r in
  checkb "valid JSON" true (json_valid json);
  checki "orphan E suppressed, dangling B closed"
    (count_substring json {|"ph":"B"|})
    (count_substring json {|"ph":"E"|})

let test_csv_shape () =
  let r = Obs.Recorder.create ~capacity:16 () in
  let a = actor "com,ma" 3 in
  Obs.Recorder.record r 5 (Obs.Event.Spawn { who = a });
  Obs.Recorder.record r 7 (Obs.Event.Block { who = a; on = "lock" });
  let csv = Obs.Recorder.to_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  checki "header + one row per event" 3 (List.length lines);
  check Alcotest.string "header" "time_us,event,tid,thread,detail" (List.hd lines);
  checkb "comma-bearing name quoted" true (count_substring csv {|"com,ma"|} > 0)

let test_trace_window_metadata () =
  (* the Chrome export must carry the ring-window accounting so a wrapped
     trace is detectable from the file alone *)
  let r = Obs.Recorder.create ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Recorder.record r i (select "t" 0)
  done;
  let json = Obs.Recorder.to_chrome_json r in
  checkb "valid JSON" true (json_valid json);
  checki "trace_window metadata once" 1 (count_substring json "trace_window");
  checkb "dropped count surfaced" true
    (count_substring json {|"seen":10,"capacity":4,"dropped":6|} > 0)

let test_csv_dropped_comment () =
  let r = Obs.Recorder.create ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Recorder.record r i (select "t" 0)
  done;
  let csv = Obs.Recorder.to_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (* header stays first so the file still machine-parses; the warning is a
     comment row right after it *)
  check Alcotest.string "header first" "time_us,event,tid,thread,detail"
    (List.hd lines);
  checkb "comment row flags the wrap" true
    (match lines with
    | _ :: c :: _ -> String.length c > 0 && c.[0] = '#' && count_substring c "dropped 6" > 0
    | _ -> false);
  (* and no comment row at all when nothing was dropped *)
  let r2 = Obs.Recorder.create ~capacity:16 () in
  Obs.Recorder.record r2 1 (select "t" 0);
  checki "clean window has no comment rows" 0
    (count_substring (Obs.Recorder.to_csv r2) "#")

(* --- hdr histograms ----------------------------------------------------------- *)

(* same rank convention as Hdr.percentile: the 1-indexed sample of rank
   ceil(p/100 * n) in the sorted data *)
let exact_rank_percentile sorted p =
  let n = Array.length sorted in
  let r = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  let r = if r < 1 then 1 else if r > n then n else r in
  sorted.(r - 1)

let test_hdr_exact_region () =
  (* below 2^sub_bits every bucket has unit width: quantiles are exact *)
  let h = Obs.Hdr.create ~sub_bits:5 () in
  for v = 0 to 31 do
    Obs.Hdr.record h v
  done;
  checki "count" 32 (Obs.Hdr.count h);
  checki "sum exact" (31 * 32 / 2) (Obs.Hdr.sum h);
  checki "min" 0 (Obs.Hdr.min_value h);
  checki "max" 31 (Obs.Hdr.max_value_seen h);
  checkb "p50 exact" true (Obs.Hdr.percentile h 50. = 15.);
  checkb "p100 exact" true (Obs.Hdr.percentile h 100. = 31.)

let test_hdr_vs_exact_quantiles () =
  (* the acceptance property: 10^6 samples from a latency-shaped mixture,
     histogram quantiles within the documented relative error of the exact
     order statistics (and of Descriptive's interpolating quantile) *)
  let rng = Rng.create ~seed:71 () in
  let n = 1_000_000 in
  let h = Obs.Hdr.create () in
  let xs =
    Array.init n (fun _ ->
        if Rng.float_unit rng < 0.1 then Rng.int_below rng 32
        else int_of_float (Rng.exponential rng ~mean:4000.))
  in
  Array.iter (fun v -> Obs.Hdr.record h v) xs;
  checki "all recorded, none clamped" n (Obs.Hdr.count h);
  checki "no clamping at default max" 0 (Obs.Hdr.clamped h);
  let sorted = Array.map float_of_int xs in
  Array.sort compare sorted;
  let tol = Obs.Hdr.max_relative_error h in
  checkb "documented bound is 2^-5" true (tol = 1. /. 32.);
  List.iter
    (fun p ->
      let est = Obs.Hdr.percentile h p in
      let exact = exact_rank_percentile sorted p in
      let rel a b = if b = 0. then Float.abs (a -. b) else Float.abs (a -. b) /. b in
      checkb
        (Printf.sprintf "p%g within %.4f of exact rank (est %.0f, exact %.0f)" p
           tol est exact)
        true
        (rel est exact <= tol);
      (* Descriptive interpolates between adjacent ranks; with 10^6 samples
         that shifts the target by at most one order statistic *)
      let interp = Descriptive.percentile sorted p in
      checkb
        (Printf.sprintf "p%g within %.4f of Descriptive (est %.0f, interp %.1f)"
           p tol est interp)
        true
        (rel est interp <= tol +. 0.005))
    [ 50.; 90.; 99.; 99.9 ]

let test_hdr_clamping_and_reset () =
  let h = Obs.Hdr.create ~sub_bits:5 ~max_value:1024 () in
  Obs.Hdr.record h (-3);
  (* negatives clamp to 0 *)
  Obs.Hdr.record h 5000;
  (* oversized samples clamp into the top bucket but keep exact sum/max *)
  checki "count includes clamped" 2 (Obs.Hdr.count h);
  checki "one clamped sample" 1 (Obs.Hdr.clamped h);
  checki "sum keeps the exact oversized value" 5000 (Obs.Hdr.sum h);
  checki "max exact" 5000 (Obs.Hdr.max_value_seen h);
  checki "negative floored at zero" 0 (Obs.Hdr.min_value h);
  let snap = Obs.Hdr.copy h in
  Obs.Hdr.reset h;
  checki "reset empties" 0 (Obs.Hdr.count h);
  checki "copy unaffected by reset" 2 (Obs.Hdr.count snap)

let test_hdr_merge () =
  (* interleave one stream into two histograms: the merge must be
     indistinguishable from having recorded everything into one *)
  let a = Obs.Hdr.create () and b = Obs.Hdr.create () in
  let all = Obs.Hdr.create () in
  let rng = Rng.create ~seed:5 () in
  for i = 0 to 9_999 do
    let v = Rng.int_below rng 100_000 in
    Obs.Hdr.record (if i mod 2 = 0 then a else b) v;
    Obs.Hdr.record all v
  done;
  Obs.Hdr.merge ~into:a b;
  checki "merged count" (Obs.Hdr.count all) (Obs.Hdr.count a);
  checki "merged sum" (Obs.Hdr.sum all) (Obs.Hdr.sum a);
  checki "merged min" (Obs.Hdr.min_value all) (Obs.Hdr.min_value a);
  checki "merged max" (Obs.Hdr.max_value_seen all) (Obs.Hdr.max_value_seen a);
  List.iter
    (fun p ->
      checkb
        (Printf.sprintf "merged p%g = single-stream p%g" p p)
        true
        (Obs.Hdr.percentile a p = Obs.Hdr.percentile all p))
    [ 1.; 50.; 99.; 100. ];
  Alcotest.check_raises "mismatched parameters rejected"
    (Invalid_argument "Hdr.merge: mismatched histogram parameters") (fun () ->
      Obs.Hdr.merge ~into:a (Obs.Hdr.create ~sub_bits:6 ()))

(* Bucket placement against a bit-at-a-time top-bit loop: every value is
   recorded once, and [iter_buckets] must report exactly the buckets (and
   counts) the loop puts them in. The values cover the exact region,
   everything up to 2^16, and each power of two and its neighbours up to
   [max_value]. *)
let test_hdr_buckets_match_bit_loop () =
  let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1) in
  let reference_bounds ~sub_bits v =
    if v < 1 lsl sub_bits then (v, v)
    else begin
      let shift = msb v 0 - sub_bits in
      let lo = (v lsr shift) lsl shift in
      (lo, lo + (1 lsl shift) - 1)
    end
  in
  List.iter
    (fun (sub_bits, max_value) ->
      let h = Obs.Hdr.create ~sub_bits ~max_value () in
      let want = Hashtbl.create 1024 in
      let probe v =
        if v >= 0 && v <= max_value then begin
          Obs.Hdr.record h v;
          let b = reference_bounds ~sub_bits v in
          Hashtbl.replace want b (1 + Option.value ~default:0 (Hashtbl.find_opt want b))
        end
      in
      for v = 0 to 1 lsl 16 do
        probe v
      done;
      for m = 0 to 61 do
        let p = 1 lsl m in
        probe (p - 1);
        probe p;
        probe (p + 1)
      done;
      probe max_value;
      let want =
        List.sort compare (Hashtbl.fold (fun (lo, hi) c acc -> (lo, hi, c) :: acc) want [])
      in
      let got = ref [] in
      Obs.Hdr.iter_buckets h (fun ~lo ~hi ~count -> got := (lo, hi, count) :: !got);
      let got = List.sort compare !got in
      if got <> want then
        Alcotest.failf "sub_bits %d, max_value %d: %d buckets, bit loop %d" sub_bits
          max_value (List.length got) (List.length want))
    [ (5, 1 lsl 30); (1, 2); (8, max_int); (12, (1 lsl 20) + 7) ]

(* --- live kernel helpers ----------------------------------------------------- *)

let lottery_kernel = Fixtures.lottery_kernel

let spin_thread k ls name amount =
  let th =
    Kernel.spawn k ~name (fun () ->
        while true do
          Api.compute (Time.ms 10)
        done)
  in
  ignore
    (Lottery_sched.fund_thread ls th ~amount ~from:(Lottery_sched.base_currency ls));
  th

(* --- causal rpc spans --------------------------------------------------------- *)

(* round-robin kernels: no funding boilerplate, and span semantics are
   scheduler-independent *)
let rr_kernel () =
  Kernel.create ~quantum:(Time.ms 10)
    ~sched:(Round_robin.sched (Round_robin.create ()))
    ()

let traced_kernel () =
  let k = rr_kernel () in
  let tracer = Obs.Span.create () in
  Obs.Span.attach tracer (Kernel.bus k);
  (k, tracer)

let span_accounting_closed tracer =
  let st = Obs.Span.stats tracer in
  st.Obs.Span.st_open = 0
  && st.st_closed + st.st_dropped + st.st_orphaned = st.st_total

let test_span_roundtrip_and_flow_events () =
  let k, tracer = traced_kernel () in
  let r = Obs.Recorder.create ~capacity:(1 lsl 12) () in
  Obs.Recorder.attach r (Kernel.bus k);
  let port = Kernel.create_port k ~name:"echo" in
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         while true do
           let m = Api.receive port in
           Api.compute (Time.ms 5);
           Api.reply m m.payload
         done));
  ignore
    (Kernel.spawn k ~name:"client" (fun () ->
         for _ = 1 to 5 do
           ignore (Api.rpc port "ping")
         done));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  Obs.Span.finalize tracer ~now:(Kernel.now k);
  let st = Obs.Span.stats tracer in
  checki "five spans opened" 5 st.Obs.Span.st_total;
  checki "all closed" 5 st.st_closed;
  checki "none left open" 0 st.st_open;
  check (Alcotest.list Alcotest.string) "no violations" []
    (Obs.Span.violations tracer);
  Obs.Span.iter tracer (fun s ->
      checkb "top-level spans have no parent" true (s.Obs.Span.parent = None);
      checkb "server endpoint recorded" true (s.Obs.Span.server <> None);
      checkb "send <= recv <= close" true
        (match (s.Obs.Span.recv_at, s.Obs.Span.closed_at) with
        | Some rv, Some c -> s.Obs.Span.sent_at <= rv && rv <= c
        | _ -> false));
  let span_json = Obs.Span.to_chrome_json tracer in
  checkb "span JSON valid" true (json_valid span_json);
  checki "one async begin per span" 5 (count_substring span_json {|"ph":"b"|});
  checki "one service instant per span" 5 (count_substring span_json {|"ph":"n"|});
  checki "one async end per span" 5 (count_substring span_json {|"ph":"e"|});
  (* the recorder's trace carries matching flow events: the request path
     renders as connected arrows across the two thread tracks *)
  let trace_json = Obs.Recorder.to_chrome_json r in
  checkb "trace JSON valid" true (json_valid trace_json);
  checki "flow start per request" 5 (count_substring trace_json {|"ph":"s"|});
  checki "flow step at pickup" 5 (count_substring trace_json {|"ph":"t"|});
  checki "flow finish at reply" 5 (count_substring trace_json {|"ph":"f"|})

let test_span_nested_parenting () =
  (* client -> front -> back: the inner request must be parented to the
     span its sender was servicing, forming a two-level tree *)
  let k, tracer = traced_kernel () in
  let front = Kernel.create_port k ~name:"front" in
  let back = Kernel.create_port k ~name:"back" in
  ignore
    (Kernel.spawn k ~name:"backend" (fun () ->
         while true do
           let m = Api.receive back in
           Api.compute (Time.ms 2);
           Api.reply m ("b:" ^ m.payload)
         done));
  ignore
    (Kernel.spawn k ~name:"mid" (fun () ->
         while true do
           let m = Api.receive front in
           Api.reply m (Api.rpc back m.payload)
         done));
  let answer = ref "" in
  ignore
    (Kernel.spawn k ~name:"client" (fun () -> answer := Api.rpc front "x"));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  Obs.Span.finalize tracer ~now:(Kernel.now k);
  check Alcotest.string "request went through both hops" "b:x" !answer;
  check (Alcotest.list Alcotest.string) "no violations" []
    (Obs.Span.violations tracer);
  match Obs.Span.spans tracer with
  | [ outer; inner ] ->
      checkb "outer span is the root" true (outer.Obs.Span.parent = None);
      checkb "inner parented to outer" true
        (inner.Obs.Span.parent = Some outer.Obs.Span.id);
      checkb "outer lists inner as child" true
        (List.mem inner.Obs.Span.id outer.Obs.Span.children);
      check Alcotest.string "outer port" "front" outer.Obs.Span.port;
      check Alcotest.string "inner port" "back" inner.Obs.Span.port;
      checkb "both closed" true
        (outer.Obs.Span.status = Obs.Span.Closed
        && inner.Obs.Span.status = Obs.Span.Closed)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_client_killed_reply_dropped () =
  (* the client dies while its request is in service; the server's eventual
     reply is a traced no-op and the span must end Dropped, not leak *)
  let k, tracer = traced_kernel () in
  let port = Kernel.create_port k ~name:"svc" in
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         let m = Api.receive port in
         Api.compute (Time.ms 500);
         Api.reply m ""));
  let doomed =
    Kernel.spawn k ~name:"doomed" (fun () -> ignore (Api.rpc port "a"))
  in
  ignore (Kernel.run k ~until:(Time.ms 100));
  Kernel.kill k doomed;
  ignore (Kernel.run k ~until:(Time.seconds 2));
  Obs.Span.finalize tracer ~now:(Kernel.now k);
  check (Alcotest.list Alcotest.string) "kills are not violations" []
    (Obs.Span.violations tracer);
  checkb "accounting closed" true (span_accounting_closed tracer);
  (match Obs.Span.spans tracer with
  | [ s ] ->
      checkb "span ended Dropped" true
        (match s.Obs.Span.status with Obs.Span.Dropped _ -> true | _ -> false)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

let test_span_server_killed_orphans () =
  let k, tracer = traced_kernel () in
  let port = Kernel.create_port k ~name:"svc" in
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        let m = Api.receive port in
        Api.compute (Time.seconds 10);
        Api.reply m "")
  in
  ignore
    (Kernel.spawn k ~name:"client" (fun () -> ignore (Api.rpc port "x")));
  ignore (Kernel.run k ~until:(Time.ms 100));
  Kernel.kill k server;
  ignore (Kernel.run k ~until:(Time.ms 200));
  Obs.Span.finalize tracer ~now:(Kernel.now k);
  check (Alcotest.list Alcotest.string) "no violations" []
    (Obs.Span.violations tracer);
  checkb "accounting closed" true (span_accounting_closed tracer);
  (match Obs.Span.spans tracer with
  | [ s ] ->
      checkb "span flagged orphaned by server death" true
        (s.Obs.Span.status = Obs.Span.Orphaned "server died")
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

let test_span_finalize_flags_unfinished () =
  (* a request to a port nobody serves: still pending at the horizon, so
     finalize must flag it rather than leave it open *)
  let k, tracer = traced_kernel () in
  let port = Kernel.create_port k ~name:"void" in
  ignore
    (Kernel.spawn k ~name:"client" (fun () -> ignore (Api.rpc port "x")));
  ignore (Kernel.run k ~until:(Time.ms 100));
  Obs.Span.finalize tracer ~now:(Kernel.now k);
  checkb "accounting closed" true (span_accounting_closed tracer);
  (match Obs.Span.spans tracer with
  | [ s ] ->
      checkb "pending span orphaned at finalize" true
        (s.Obs.Span.status = Obs.Span.Orphaned "unfinished at finalize");
      checkb "closed_at set to the horizon" true
        (s.Obs.Span.closed_at = Some (Kernel.now k))
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  checkb "span JSON of flagged spans still valid" true
    (json_valid (Obs.Span.to_chrome_json tracer))

let test_span_scatter_gather () =
  (* rpc_many opens one span per target, all parented the same way (none,
     here) and all closed on gather *)
  let k, tracer = traced_kernel () in
  let mk name =
    let port = Kernel.create_port k ~name in
    ignore
      (Kernel.spawn k ~name:(name ^ "-srv") (fun () ->
           while true do
             let m = Api.receive port in
             Api.compute (Time.ms 3);
             Api.reply m (name ^ ":" ^ m.payload)
           done));
    port
  in
  let p1 = mk "s1" and p2 = mk "s2" and p3 = mk "s3" in
  let got = ref [] in
  ignore
    (Kernel.spawn k ~name:"client" (fun () ->
         got := Api.rpc_many [ (p1, "a"); (p2, "b"); (p3, "c") ]));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  Obs.Span.finalize tracer ~now:(Kernel.now k);
  check (Alcotest.list Alcotest.string) "replies in request order"
    [ "s1:a"; "s2:b"; "s3:c" ] !got;
  let st = Obs.Span.stats tracer in
  checki "one span per scatter target" 3 st.Obs.Span.st_total;
  checki "all closed" 3 st.st_closed;
  check (Alcotest.list Alcotest.string) "no violations" []
    (Obs.Span.violations tracer)

let test_span_eviction_bounds_memory () =
  let k = rr_kernel () in
  let tracer = Obs.Span.create ~retain:8 () in
  Obs.Span.attach tracer (Kernel.bus k);
  let port = Kernel.create_port k ~name:"echo" in
  ignore
    (Kernel.spawn k ~name:"server" (fun () ->
         while true do
           let m = Api.receive port in
           Api.reply m ""
         done));
  ignore
    (Kernel.spawn k ~name:"client" (fun () ->
         for _ = 1 to 100 do
           ignore (Api.rpc port "x")
         done));
  ignore (Kernel.run k ~until:(Time.seconds 10));
  Obs.Span.finalize tracer ~now:(Kernel.now k);
  let st = Obs.Span.stats tracer in
  checki "stats count every span ever opened" 100 st.Obs.Span.st_total;
  checki "all closed" 100 st.st_closed;
  checkb "retention window enforced" true
    (List.length (Obs.Span.spans tracer) <= 8);
  checki "eviction accounted" (100 - List.length (Obs.Span.spans tracer))
    (Obs.Span.evicted tracer);
  check (Alcotest.list Alcotest.string) "no violations" []
    (Obs.Span.violations tracer)

let live_words = Fixtures.live_words

(* Both endpoints of every span die: each round spawns a server (receive,
   compute 5 ms, reply) and a client that sends it one request, and kills
   both 2 ms in, while the server computes. The client's death orphans
   the span and the server's then finishes it, so [~retain] bounds the
   tracer: spans are evicted, and the live heap does not grow with the
   rounds. (It grew ~29 words a round while such spans were kept for the
   tracer's life.) *)
let test_span_double_death_evicts () =
  let k = rr_kernel () in
  let tracer = Obs.Span.create ~retain:16 () in
  Obs.Span.attach tracer (Kernel.bus k);
  let port = Kernel.create_port k ~name:"svc" in
  let round () =
    let server =
      Kernel.spawn k ~name:"server" (fun () ->
          let m = Api.receive port in
          Api.compute (Time.ms 5);
          Api.reply m "")
    in
    let client =
      Kernel.spawn k ~name:"client" (fun () -> ignore (Api.rpc port "x"))
    in
    ignore (Kernel.run k ~until:(Kernel.now k + Time.ms 2));
    Kernel.kill k client;
    Kernel.kill k server;
    ignore (Kernel.run k ~until:(Kernel.now k + Time.ms 1))
  in
  for _ = 1 to 500 do
    round ()
  done;
  let w1 = live_words () in
  for _ = 1 to 1500 do
    round ()
  done;
  let w2 = live_words () in
  let st = Obs.Span.stats tracer in
  checki "every round opened a span" 2000 st.Obs.Span.st_total;
  checki "every span orphaned" 2000 st.st_orphaned;
  checkb "retention window enforced" true
    (List.length (Obs.Span.spans tracer) <= 16);
  checki "eviction accounted" (2000 - List.length (Obs.Span.spans tracer))
    (Obs.Span.evicted tracer);
  check (Alcotest.list Alcotest.string) "no violations" []
    (Obs.Span.violations tracer);
  let per_round = float_of_int (w2 - w1) /. 1500. in
  if per_round > 1. then
    Alcotest.failf "%.2f live words per round of double deaths" per_round

(* --- determinism of the typed stream ----------------------------------------- *)

let run_traced seed =
  let k, ls = lottery_kernel ~seed () in
  let r = Obs.Recorder.create ~capacity:(1 lsl 16) () in
  Obs.Recorder.attach r (Kernel.bus k);
  let _a = spin_thread k ls "a" 100 in
  let _b = spin_thread k ls "b" 200 in
  let _i =
    let th =
      Kernel.spawn k ~name:"i" (fun () ->
          while true do
            Api.compute (Time.ms 20);
            Api.sleep (Time.ms 50)
          done)
    in
    ignore
      (Lottery_sched.fund_thread ls th ~amount:100
         ~from:(Lottery_sched.base_currency ls));
    th
  in
  ignore (Kernel.run k ~until:(Time.seconds 5));
  List.map
    (fun (t, e) -> Printf.sprintf "%d %s" t (Obs.Event.render e))
    (Obs.Recorder.events r)

let test_typed_stream_deterministic () =
  let one = run_traced 42 and two = run_traced 42 in
  checkb "non-trivial stream" true (List.length one > 100);
  checkb "same seed, byte-identical streams" true (one = two);
  let three = run_traced 43 in
  checkb "different seed diverges" true (one <> three)

(* --- multiple subscribers on a live kernel ----------------------------------- *)

let test_multi_subscriber_full_stream () =
  let k, ls = lottery_kernel ~seed:9 () in
  let timeline = Lotto_sim.Timeline.attach k () in
  let r = Obs.Recorder.create ~capacity:(1 lsl 16) () in
  Obs.Recorder.attach r (Kernel.bus k);
  let probe = ref 0 in
  let _sub = Obs.Bus.subscribe ~name:"probe" (Kernel.bus k) (fun _ _ -> incr probe) in
  let tha = spin_thread k ls "a" 100 in
  let _thb = spin_thread k ls "b" 300 in
  ignore (Kernel.run k ~until:(Time.seconds 2));
  checkb "probe saw traffic" true (!probe > 0);
  checki "probe and recorder saw the same stream" (Obs.Recorder.seen r) !probe;
  checki "nothing dropped below capacity" 0 (Obs.Recorder.dropped r);
  (* the timeline subscriber works from the same stream: its per-thread CPU
     matches the kernel's own accounting *)
  checki "timeline cpu = kernel cpu" (Kernel.cpu_time tha)
    (Lotto_sim.Timeline.cpu_of timeline "a")

(* --- metrics ----------------------------------------------------------------- *)

let test_metrics_quanta_match_kernel () =
  let k, ls = lottery_kernel ~seed:5 () in
  let m = Obs.Metrics.create () in
  Obs.Metrics.attach m (Kernel.bus k);
  let tha = spin_thread k ls "a" 100 in
  let thb = spin_thread k ls "b" 200 in
  ignore (Kernel.run k ~until:(Time.seconds 3));
  Obs.Metrics.detach m;
  let by_name n =
    match List.find_opt (fun s -> s.Obs.Metrics.name = n) (Obs.Metrics.snapshots m) with
    | Some s -> s
    | None -> Alcotest.failf "no snapshot for %s" n
  in
  checki "a: metric quanta = kernel cpu" (Kernel.cpu_time tha) (by_name "a").quanta;
  checki "b: metric quanta = kernel cpu" (Kernel.cpu_time thb) (by_name "b").quanta;
  checki "total quanta = clock" (Time.seconds 3) (Obs.Metrics.total_quanta m);
  checkb "a won lotteries" true ((by_name "a").wins > 0);
  checki "spinners never block" 0 (by_name "a").blocks

let test_metrics_wait_time () =
  let k, ls = lottery_kernel ~seed:6 () in
  let m = Obs.Metrics.create () in
  Obs.Metrics.attach m (Kernel.bus k);
  let th =
    Kernel.spawn k ~name:"sleeper" (fun () ->
        while true do
          Api.compute (Time.ms 10);
          Api.sleep (Time.ms 40)
        done)
  in
  ignore
    (Lottery_sched.fund_thread ls th ~amount:100
       ~from:(Lottery_sched.base_currency ls));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  match Obs.Metrics.snapshots m with
  | [ s ] ->
      checkb "blocked at least once" true (s.blocks > 0);
      (* the final block may still be pending at the horizon *)
      checkb "one wait sample per completed block" true
        (let n = Obs.Hdr.count s.wait in
         n = s.blocks || n = s.blocks - 1);
      (* the exact extremes: every wait is the sleep duration *)
      checki "shortest wait is the sleep" 40_000 (Obs.Hdr.min_value s.wait);
      checki "longest wait is the sleep" 40_000 (Obs.Hdr.max_value_seen s.wait);
      checkb "compensated after each early block" true (s.compensations > 0)
  | l -> Alcotest.failf "expected 1 snapshot, got %d" (List.length l)

let test_fairness_gauge () =
  let k, ls = lottery_kernel ~seed:7 () in
  let m = Obs.Metrics.create () in
  Obs.Metrics.attach m (Kernel.bus k);
  let tha = spin_thread k ls "a" 100 in
  let thb = spin_thread k ls "b" 200 in
  let thc = spin_thread k ls "c" 300 in
  ignore (Kernel.run k ~until:(Time.seconds 60));
  let entitled =
    List.map
      (fun th -> (Kernel.thread_id th, Lottery_sched.thread_entitlement ls th))
      [ tha; thb; thc ]
  in
  let shares, p = Obs.Metrics.fairness m ~entitled in
  checki "three rows" 3 (List.length shares);
  List.iter
    (fun (s : Obs.Metrics.share) ->
      checkb
        (Printf.sprintf "%s within 10%% of entitlement" s.s_name)
        true
        (Float.abs (s.observed -. s.entitled) < 0.10))
    shares;
  (match p with
  | Some p -> checkb "1:2:3 split statistically consistent" true (p > 0.001)
  | None -> Alcotest.fail "p-value expected");
  let text = Obs.Metrics.summary ~entitled m in
  checkb "summary names all threads" true
    (List.for_all (fun n -> count_substring text n > 0) [ "a"; "b"; "c" ]);
  checkb "summary prints verdict" true (count_substring text "consistent" > 0)

let test_fairness_none_when_undefined () =
  let m = Obs.Metrics.create () in
  let _, p = Obs.Metrics.fairness m ~entitled:[ (0, 1.); (1, 1.) ] in
  checkb "no events -> no verdict" true (p = None)

(* feed [n] full slices of [quantum] µs to [who], starting at [t0] *)
let feed_slices m who ~t0 ~quantum ~n =
  for i = 0 to n - 1 do
    let t = t0 + (i * quantum) in
    Obs.Metrics.on_event m t (Obs.Event.Select { who; cpu = 0 });
    Obs.Metrics.on_event m (t + quantum)
      (Obs.Event.Preempt
         { who; used = quantum; quantum; why = Obs.Event.End_quantum })
  done;
  t0 + (n * quantum)

let test_fairness_dedupes_duplicate_tids () =
  (* regression: a tid listed twice in ~entitled used to keep both entries,
     double-counting that thread's quanta in the share total and giving it
     two cells in the chi-square *)
  let m = Obs.Metrics.create () in
  let a = actor "a" 1 and b = actor "b" 2 in
  let t = feed_slices m a ~t0:0 ~quantum:10_000 ~n:30 in
  ignore (feed_slices m b ~t0:t ~quantum:10_000 ~n:30);
  let shares, p =
    Obs.Metrics.fairness m ~entitled:[ (1, 1.); (2, 1.); (1, 5.) ]
  in
  checki "duplicate entry collapsed" 2 (List.length shares);
  let sa = List.find (fun s -> s.Obs.Metrics.s_tid = 1) shares in
  checkb "first entry wins" true
    (Float.abs (sa.Obs.Metrics.entitled -. 0.5) < 1e-9);
  (match p with
  | Some p -> checkb "even split consistent with 1:1" true (p > 0.9)
  | None -> Alcotest.fail "p-value expected")

let test_fairness_heterogeneous_quanta () =
  (* regression: slice counts were computed as cpu / max-quantum-seen, so a
     thread whose time was granted under a smaller quantum had its slices
     undercounted by the ratio of the quanta — here, 10 grants @10ms
     counted as 1, spuriously rejecting a perfectly even 15:15 grant split *)
  let m = Obs.Metrics.create () in
  let a = actor "a" 1 and b = actor "b" 2 in
  let t = feed_slices m a ~t0:0 ~quantum:10_000 ~n:10 in
  let t = feed_slices m a ~t0:t ~quantum:100_000 ~n:5 in
  ignore (feed_slices m b ~t0:t ~quantum:100_000 ~n:15);
  let _, p = Obs.Metrics.fairness m ~entitled:[ (1, 1.); (2, 1.) ] in
  match p with
  | Some p -> checkb "equal grant counts consistent with 1:1" true (p > 0.9)
  | None -> Alcotest.fail "p-value expected"

(* The registry against a naive fold: one row per tid found by list
   search, one (quantum, ticks) cell per Preempt.
   The stream names several threads in runs, hands the registry fresh
   actor records for a tid it already knows (a reaped thread's actor is
   rebuilt per event), and switches quanta back and forth. *)
type naive = {
  n_name : string;
  mutable n_wins : int;
  mutable n_quanta : int;
  mutable n_comp : int;
  mutable n_blocks : int;
  mutable n_donations : int;
  mutable n_locks : int;
  mutable n_contended : int;
  mutable n_rpcs : int;
  mutable n_served : int;
  mutable n_shed : int;
  mutable n_blocked_since : int;
  mutable n_runnable_since : int;
  mutable n_waits : int list;  (** newest first *)
  mutable n_disps : int list;
  mutable n_q : (int * int) list;  (** one cell per Preempt *)
}

let naive_fold events =
  let rows = ref [] in
  let quantum_us = ref 0 in
  let row (a : Obs.Event.actor) =
    match List.assoc_opt a.tid !rows with
    | Some r -> r
    | None ->
        let r =
          {
            n_name = a.tname; n_wins = 0; n_quanta = 0; n_comp = 0; n_blocks = 0;
            n_donations = 0; n_locks = 0; n_contended = 0; n_rpcs = 0;
            n_served = 0; n_shed = 0; n_blocked_since = -1;
            n_runnable_since = -1; n_waits = []; n_disps = []; n_q = [];
          }
        in
        rows := !rows @ [ (a.tid, r) ];
        r
  in
  List.iter
    (fun (time, ev) ->
      match ev with
      | Obs.Event.Spawn { who } -> (row who).n_runnable_since <- time
      | Select { who; _ } ->
          let r = row who in
          r.n_wins <- r.n_wins + 1;
          if r.n_runnable_since >= 0 then
            r.n_disps <- (time - r.n_runnable_since) :: r.n_disps;
          r.n_runnable_since <- -1
      | Preempt { who; used; quantum; why } -> (
          let r = row who in
          r.n_quanta <- r.n_quanta + used;
          if quantum > 0 then r.n_q <- (quantum, used) :: r.n_q;
          quantum_us := max !quantum_us quantum;
          match why with
          | End_quantum | End_yield | End_horizon -> r.n_runnable_since <- time
          | End_block | End_exit -> ())
      | Block { who; _ } ->
          let r = row who in
          r.n_blocks <- r.n_blocks + 1;
          r.n_blocked_since <- time
      | Wake { who } ->
          let r = row who in
          if r.n_blocked_since >= 0 then
            r.n_waits <- (time - r.n_blocked_since) :: r.n_waits;
          r.n_blocked_since <- -1;
          r.n_runnable_since <- time
      | Exit { who; _ } -> (row who).n_runnable_since <- -1
      | Compensate { who; _ } ->
          let r = row who in
          r.n_comp <- r.n_comp + 1
      | Donate { src; _ } ->
          let r = row src in
          r.n_donations <- r.n_donations + 1
      | Lock_acquire { who; contended; _ } ->
          let r = row who in
          r.n_locks <- r.n_locks + 1;
          if contended then r.n_contended <- r.n_contended + 1
      | Rpc_send { who; _ } ->
          let r = row who in
          r.n_rpcs <- r.n_rpcs + 1
      | Rpc_recv { who; _ } ->
          let r = row who in
          r.n_served <- r.n_served + 1
      | Rpc_shed { who; _ } ->
          let r = row who in
          r.n_shed <- r.n_shed + 1
      | _ -> ())
    events;
  (!rows, !quantum_us)

(* the same fairness arithmetic, over the naive rows *)
let naive_fairness (rows, quantum_us) ~entitled =
  let seen = Hashtbl.create 8 in
  let compared =
    List.filter_map
      (fun (tid, w) ->
        if Hashtbl.mem seen tid then None
        else begin
          Hashtbl.add seen tid ();
          Option.map (fun r -> (tid, r, w)) (List.assoc_opt tid rows)
        end)
      entitled
  in
  let total_q = List.fold_left (fun acc (_, r, _) -> acc + r.n_quanta) 0 compared in
  let total_w = List.fold_left (fun acc (_, _, w) -> acc +. w) 0. compared in
  let shares =
    List.map
      (fun (tid, r, w) ->
        {
          Obs.Metrics.s_tid = tid;
          s_name = r.n_name;
          s_quanta = r.n_quanta;
          observed = float_of_int r.n_quanta /. float_of_int (max 1 total_q);
          entitled = (if total_w > 0. then w /. total_w else 0.);
        })
      compared
  in
  let p =
    if quantum_us <= 0 || total_w <= 0. || List.length compared < 2
       || List.exists (fun (_, _, w) -> w <= 0.) compared
    then None
    else begin
      let slices r =
        let per_q = Hashtbl.create 4 in
        List.iter
          (fun (q, used) ->
            let acc = Option.value ~default:0 (Hashtbl.find_opt per_q q) in
            Hashtbl.replace per_q q (acc + used))
          r.n_q;
        Hashtbl.fold
          (fun q used acc ->
            acc + int_of_float (Float.round (float_of_int used /. float_of_int q)))
          per_q 0
      in
      let observed = Array.of_list (List.map (fun (_, r, _) -> slices r) compared) in
      let total = Array.fold_left ( + ) 0 observed in
      if total = 0 then None
      else begin
        let expected =
          Array.of_list
            (List.map (fun (_, _, w) -> w /. total_w *. float_of_int total) compared)
        in
        let stat = Chi_square.statistic ~observed ~expected in
        let df = Chi_square.degrees_of_freedom ~cells:(Array.length observed) in
        Some (Chi_square.p_value ~statistic:stat ~df)
      end
    end
  in
  (shares, p)

let hdr_of samples =
  let h = Obs.Hdr.create ~sub_bits:5 ~max_value:(1 lsl 30) () in
  List.iter (Obs.Hdr.record h) (List.rev samples);
  h

let buckets h =
  let acc = ref [] in
  Obs.Hdr.iter_buckets h (fun ~lo ~hi ~count -> acc := (lo, hi, count) :: !acc);
  (Obs.Hdr.count h, Obs.Hdr.sum h, List.rev !acc)

(* [tids] name the stream's five threads; the stream opens with a row
   whose quantum goes 10 000 -> 20 000 -> 10 000 *)
let random_stream rng ~tids ~n =
  let names = [| "a"; "b"; "c"; "d"; "e" |] in
  let actors = Array.mapi (fun i name -> actor name tids.(i)) names in
  let quanta = [| 10_000; 20_000; 10_000; 5_000 |] in
  let q = ref 0 in
  let who = ref 0 in
  let time = ref 0 in
  let a_b_a =
    List.map
      (fun quantum ->
        time := !time + 1_000;
        ( !time,
          Obs.Event.Preempt
            { who = actors.(0); used = Rng.int_below rng (quantum + 1); quantum;
              why = End_quantum } ))
      [ 10_000; 20_000; 10_000 ]
  in
  a_b_a
  @ List.init n (fun _ ->
      time := !time + Rng.int_below rng 3_000;
      (* runs of events on one thread, as a slice produces them *)
      if Rng.int_below rng 3 = 0 then who := Rng.int_below rng (Array.length actors);
      (* a reaped thread's actor is a fresh record with the same tid *)
      if Rng.int_below rng 8 = 0 then
        actors.(!who) <- actor names.(!who) tids.(!who);
      if Rng.int_below rng 6 = 0 then q := Rng.int_below rng (Array.length quanta);
      let a = actors.(!who) in
      let ev : Obs.Event.t =
        match Rng.int_below rng 12 with
        | 0 -> Spawn { who = a }
        | 1 | 2 -> Select { who = a; cpu = 0 }
        | 3 | 4 ->
            let quantum = if Rng.int_below rng 10 = 0 then 0 else quanta.(!q) in
            let why : Obs.Event.slice_end =
              match Rng.int_below rng 5 with
              | 0 -> End_quantum | 1 -> End_yield | 2 -> End_block
              | 3 -> End_exit | _ -> End_horizon
            in
            Preempt { who = a; used = Rng.int_below rng (quantum + 1); quantum; why }
        | 5 -> Block { who = a; on = "sleep" }
        | 6 -> Wake { who = a }
        | 7 -> Compensate { who = a; factor = 2. }
        | 8 -> Donate { src = a; dst = actors.(0) }
        | 9 -> Lock_acquire { who = a; mutex = "m"; contended = Rng.bool rng }
        | 10 -> Rpc_send { who = a; port = "p"; msg_id = 0; parent = None }
        | _ ->
            if Rng.bool rng then Rpc_recv { who = a; port = "p"; msg_id = 0; sender = a }
            else
              Rpc_shed
                { who = a; port = "p"; msg_id = 0; reason = "reject-new"; parent = None }
      in
      (!time, ev))

(* [m] agrees with the naive fold of [events] on every snapshot, the
   total and the fairness comparison *)
let metrics_match_naive m events ~entitled =
  let ((rows, _) as naive) = naive_fold events in
  let snaps = Obs.Metrics.snapshots m in
  List.length snaps = List.length rows
  && List.for_all2
       (fun (s : Obs.Metrics.snapshot) (tid, r) ->
         s.tid = tid && s.name = r.n_name && s.wins = r.n_wins
         && s.quanta = r.n_quanta && s.compensations = r.n_comp
         && s.blocks = r.n_blocks && s.donations = r.n_donations
         && s.lock_acquires = r.n_locks && s.lock_contended = r.n_contended
         && s.rpcs = r.n_rpcs && s.rpcs_served = r.n_served
         && s.rpcs_shed = r.n_shed
         && buckets s.wait = buckets (hdr_of r.n_waits)
         && buckets s.dispatch = buckets (hdr_of r.n_disps))
       snaps rows
  && Obs.Metrics.total_quanta m
     = List.fold_left (fun acc (_, r) -> acc + r.n_quanta) 0 rows
  && Obs.Metrics.fairness m ~entitled = naive_fairness naive ~entitled

(* Half the cases name the threads with tids equal modulo 256, which share
   one slot of the registry's row cache. Now and then the registry is read
   mid-stream ([snapshots], [fairness], [to_prom]); each read must match
   the fold of the prefix, and must leave the registry as a fresh one fed
   that prefix without reads. *)
let qcheck_metrics_match_naive_fold =
  QCheck.Test.make ~name:"metrics = naive per-tid, per-quantum fold" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed:(seed + 31) () in
      let tids =
        if seed mod 2 = 0 then [| 1; 2; 3; 4; 5 |] else [| 7; 263; 519; 1031; 8 |]
      in
      let events = random_stream rng ~tids ~n:(50 + Rng.int_below rng 400) in
      (* entitlements over a random subset, a duplicate and an unknown tid;
         now and then a zero weight, which leaves the p-value undefined *)
      let entitled =
        List.filter_map
          (fun tid ->
            if Rng.int_below rng 4 = 0 then None
            else if Rng.int_below rng 20 = 0 then Some (tid, 0.)
            else Some (tid, 1. +. float_of_int (Rng.int_below rng 9)))
          (Array.to_list tids @ [ tids.(0); 99 ])
      in
      let fed prefix =
        let m = Obs.Metrics.create () in
        List.iter (fun (t, ev) -> Obs.Metrics.on_event m t ev) prefix;
        m
      in
      let m = Obs.Metrics.create () in
      let prefix = ref [] in
      let reads_ok = ref true in
      List.iter
        (fun (t, ev) ->
          Obs.Metrics.on_event m t ev;
          prefix := (t, ev) :: !prefix;
          if !reads_ok && Rng.int_below rng 30 = 0 then begin
            let prefix = List.rev !prefix in
            reads_ok :=
              metrics_match_naive m prefix ~entitled
              && Obs.Metrics.to_prom m = Obs.Metrics.to_prom (fed prefix)
          end)
        events;
      !reads_ok && metrics_match_naive m events ~entitled)

(* Cached kernel events ([Wake], [Select], [Block], [Preempt] and
   [Compensate] are re-emitted while nothing but the thread changed) must
   always name the thread the kernel means and carry what it just did:
   waves of short-lived workers recycle thread slots on 1- and 2-CPU
   kernels, and a probe checks every such event against the live thread
   table, the scheduler's pick for that CPU, the reason the worker
   announced before blocking, the slice the kernel just ran (its length
   since the thread's [Select], the quantum, and how it ended) and the
   compensation factor that slice earns. *)
let event_cache_names_current_occupant ~cpus =
  let rng = Rng.create ~seed:12 () in
  let ls = Lottery_sched.create ~shards:cpus ~rng () in
  let s = Lottery_sched.sched ls in
  let picked = Array.make cpus None in
  let sched =
    {
      s with
      select =
        (fun ~cpu ->
          let r = s.select ~cpu in
          picked.(cpu) <- r;
          r);
    }
  in
  let k = Kernel.create ~quantum:(Time.ms 10) ~cpus ~sched () in
  let quantum = Kernel.quantum k in
  let sem = Kernel.create_semaphore k ~initial:0 "gate" in
  let doing = Hashtbl.create 16 in
  (* per tid: start of the running slice and how it ended so far *)
  let slice = Hashtbl.create 16 in
  let last_preempt = Hashtbl.create 16 in
  let until = ref 0 in
  let checked = ref 0 in
  let seen = Hashtbl.create 8 in
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail m) fmt in
  let live (a : Obs.Event.actor) =
    match List.find_opt (fun th -> Kernel.thread_id th = a.tid) (Kernel.threads k) with
    | Some th when Kernel.thread_name th = a.tname -> ()
    | _ -> fail "event names %s (tid %d), not a live thread" a.tname a.tid
  in
  let ended (who : Obs.Event.actor) how =
    match Hashtbl.find_opt slice who.tid with
    | Some (start, _) -> Hashtbl.replace slice who.tid (start, how)
    | None -> fail "%s ended a slice it was not running" who.tname
  in
  let _probe =
    Obs.Bus.subscribe ~name:"probe" (Kernel.bus k) (fun time ev ->
        match ev with
        | Obs.Event.Wake { who } ->
            live who;
            incr checked
        | Select { who; cpu } -> (
            live who;
            incr checked;
            Hashtbl.replace slice who.tid (time, `Ran);
            match picked.(cpu) with
            | Some th when Kernel.thread_id th = who.tid -> ()
            | _ -> fail "Select of %s names cpu %d, which picked another" who.tname cpu)
        | Block { who; on } ->
            live who;
            incr checked;
            ended who `Blocked;
            if Hashtbl.find_opt doing who.tid <> Some on then
              fail "Block of %s on %s, announced %s" who.tname on
                (Option.value ~default:"-" (Hashtbl.find_opt doing who.tid))
        | Exit { who; _ } -> ended who `Exited
        | Preempt { who; used; quantum = q; why } ->
            incr checked;
            let start, how =
              match Hashtbl.find_opt slice who.tid with
              | Some x -> x
              | None -> fail "Preempt of %s, which no Select started" who.tname
            in
            Hashtbl.remove slice who.tid;
            if how <> `Exited then live who;
            let expect : Obs.Event.slice_end =
              match how with
              | `Blocked -> End_block
              | `Exited -> End_exit
              | `Ran ->
                  if Hashtbl.find_opt doing who.tid = Some "yield" then End_yield
                  else if time = !until then End_horizon
                  else End_quantum
            in
            if q <> quantum || used <> time - start || why <> expect
               || (why = End_quantum && used <> quantum)
            then
              fail "Preempt of %s: used %d of %d (%s); the slice ran %d of %d (%s)"
                who.tname used q (Obs.Event.slice_end_tag why) (time - start) quantum
                (Obs.Event.slice_end_tag expect);
            Hashtbl.replace seen (Obs.Event.slice_end_tag why) ();
            Hashtbl.replace last_preempt who.tid (used, why)
        | Compensate { who; factor } -> (
            live who;
            incr checked;
            Hashtbl.replace seen "compensate" ();
            match Hashtbl.find_opt last_preempt who.tid with
            | Some (used, (Obs.Event.End_block | End_yield)) when used < quantum ->
                let f = float_of_int quantum /. float_of_int (max used 1) in
                if Int64.bits_of_float factor <> Int64.bits_of_float f then
                  fail "Compensate of %s: factor %g after a %d-tick slice (want %g)"
                    who.tname factor used f
            | _ -> fail "Compensate of %s without a partial slice" who.tname)
        | _ -> ())
  in
  let announce what =
    Hashtbl.replace doing (Kernel.thread_id (Api.self ())) what
  in
  let fund th amount =
    ignore
      (Lottery_sched.fund_thread ls th ~amount ~from:(Lottery_sched.base_currency ls))
  in
  fund
    (Kernel.spawn k ~name:"poster" (fun () ->
         while true do
           Api.compute (Time.ms 2);
           Api.sem_post sem;
           announce "sleep";
           Api.sleep (Time.ms 9)
         done))
    50;
  (* full quanta, then the partial remainder *)
  fund
    (Kernel.spawn k ~name:"hog" (fun () ->
         while true do
           Api.compute (Time.ms 15);
           announce "sleep";
           Api.sleep (Time.ms 30)
         done))
    50;
  let slots = Hashtbl.create 16 in
  for wave = 0 to 39 do
    for i = 0 to 2 do
      let th =
        Kernel.spawn k ~name:(Printf.sprintf "w%d-%d" wave i) (fun () ->
            for j = 1 to 4 do
              Api.compute (Time.ms (1 + j));
              if j mod 2 = 1 then begin
                announce "sleep";
                Api.sleep (Time.ms 3)
              end
              else begin
                announce "sem";
                Api.sem_wait sem
              end
            done)
      in
      fund th (100 + i);
      Hashtbl.add slots (Kernel.thread_slot th) (Kernel.thread_id th)
    done;
    (* equal slices that end alternately in a yield and a block *)
    fund
      (Kernel.spawn k ~name:(Printf.sprintf "y%d" wave) (fun () ->
           for j = 1 to 4 do
             Api.compute (Time.ms 3);
             if j mod 2 = 1 then begin
               announce "yield";
               Api.yield ();
               announce "run"
             end
             else begin
               announce "sleep";
               Api.sleep (Time.ms 3)
             end
           done))
      100;
    until := Kernel.now k + Time.ms 120;
    ignore (Kernel.run k ~until:!until)
  done;
  checkb "slots were recycled" true
    (Hashtbl.fold
       (fun s _ acc -> acc || List.length (Hashtbl.find_all slots s) > 1)
       slots false);
  List.iter
    (fun what -> checkb (what ^ " seen") true (Hashtbl.mem seen what))
    [ "quantum"; "yield"; "block"; "exit"; "horizon"; "compensate" ];
  checkb "the probe saw the stream" true (!checked > 1000)

let test_event_cache_names_current_occupant () =
  event_cache_names_current_occupant ~cpus:1;
  event_cache_names_current_occupant ~cpus:2

let test_metrics_histogram_default () =
  (* the default registry keeps no raw arrays — bounded memory — yet the
     histograms still answer the percentile questions *)
  let k, ls = lottery_kernel ~seed:6 () in
  let m = Obs.Metrics.create () in
  Obs.Metrics.attach m (Kernel.bus k);
  let th =
    Kernel.spawn k ~name:"sleeper" (fun () ->
        while true do
          Api.compute (Time.ms 10);
          Api.sleep (Time.ms 40)
        done)
  in
  ignore
    (Lottery_sched.fund_thread ls th ~amount:100
       ~from:(Lottery_sched.base_currency ls));
  ignore (Kernel.run k ~until:(Time.seconds 2));
  match Obs.Metrics.snapshots m with
  | [ s ] ->
      checkb "histogram counted every completed block" true
        (let n = Obs.Hdr.count s.wait in
         n = s.blocks || n = s.blocks - 1);
      (* every wait is exactly 40ms; the histogram estimate must sit within
         its documented relative error of that *)
      let p50 = Obs.Hdr.percentile s.wait 50. in
      let tol = Obs.Hdr.max_relative_error s.wait *. 40_000. in
      checkb
        (Printf.sprintf "p50 wait ~ 40ms (got %.0f)" p50)
        true
        (Float.abs (p50 -. 40_000.) <= tol);
      (* and the rendered summary works without any raw arrays *)
      let text = Obs.Metrics.summary m in
      checkb "summary renders percentiles" true
        (count_substring text "p50/90/99" > 0)
  | l -> Alcotest.failf "expected 1 snapshot, got %d" (List.length l)

let test_metrics_prom_exposition () =
  let k, ls = lottery_kernel ~seed:8 () in
  let m = Obs.Metrics.create () in
  Obs.Metrics.attach m (Kernel.bus k);
  let _a = spin_thread k ls "api\"svc" 100 in
  let ivy =
    Kernel.spawn k ~name:"ivy" (fun () ->
        while true do
          Api.compute (Time.ms 10);
          Api.sleep (Time.ms 30)
        done)
  in
  ignore
    (Lottery_sched.fund_thread ls ivy ~amount:100
       ~from:(Lottery_sched.base_currency ls));
  ignore (Kernel.run k ~until:(Time.seconds 5));
  let prom = Obs.Metrics.to_prom m in
  (* families declared once, one sample line per thread *)
  checki "wins family declared once" 1
    (count_substring prom "# TYPE lotto_wins_total counter");
  checki "one wins line per thread" 2 (count_substring prom "lotto_wins_total{");
  checki "wait summary declared" 1
    (count_substring prom "# TYPE lotto_wait_us summary");
  checkb "quantile lines present" true
    (count_substring prom {|quantile="0.99"|} > 0
    && count_substring prom {|quantile="0.999"|} > 0);
  checkb "sum/count companions present" true
    (count_substring prom "lotto_wait_us_sum{" > 0
    && count_substring prom "lotto_wait_us_count{" > 0);
  (* label values escape quotes per the text-exposition rules *)
  checkb "quote in thread name escaped" true
    (count_substring prom {|thread="api\"svc"|} > 0);
  (* a custom namespace reaches every family *)
  let ns = Obs.Metrics.to_prom ~namespace:"sim" m in
  checkb "namespace honoured" true
    (count_substring ns "sim_wins_total" > 0 && count_substring ns "lotto_" = 0)

(* Golden output: a fixed-seed RPC + mutex + semaphore scenario's metrics
   summary, chi-square p and Prometheus exposition, pinned byte for byte in
   [metrics_golden.expected]. Allocation work on the event path (cached
   actors, sentinel timestamps, the wait queues) must leave every recorded
   figure as it was. *)
let metrics_golden_output () =
  let module Ls = Lottery_sched in
  let rng = Rng.create ~seed:2024 () in
  let ls = Ls.create ~rng () in
  let k = Kernel.create ~quantum:(Time.ms 10) ~sched:(Ls.sched ls) () in
  let m = Obs.Metrics.create () in
  Obs.Metrics.attach m (Kernel.bus k);
  let base = Ls.base_currency ls in
  let port = Kernel.create_port ~capacity:4 k ~name:"svc" in
  let fifo = Kernel.create_mutex k "fifo" in
  let lot = Kernel.create_mutex k ~policy:Types.Lottery_wake "lot" in
  let sem = Kernel.create_semaphore k ~initial:0 "jobs" in
  let fund th n = ignore (Ls.fund_thread ls th ~amount:n ~from:base) in
  let server i =
    Kernel.spawn k ~name:(Printf.sprintf "srv%d" i) (fun () ->
        while true do
          let msg = Api.receive port in
          Api.compute (Time.ms 3);
          Api.with_lock fifo (fun () -> Api.compute (Time.ms 1));
          Api.reply msg "ok"
        done)
  in
  let client i =
    Kernel.spawn k ~name:(Printf.sprintf "cli%d" i) (fun () ->
        while true do
          (match Api.rpc port "req" with
          | (_ : string) -> ()
          | exception Types.Rejected _ -> ());
          Api.with_lock lot (fun () -> Api.compute (Time.ms 2));
          Api.sleep (Time.ms (5 + (7 * i)))
        done)
  in
  let producer =
    Kernel.spawn k ~name:"producer" (fun () ->
        while true do
          Api.sleep (Time.ms 4);
          Api.sem_post sem
        done)
  in
  let worker i =
    Kernel.spawn k ~name:(Printf.sprintf "wrk%d" i) (fun () ->
        while true do
          Api.sem_wait sem;
          Api.compute (Time.ms (1 + i))
        done)
  in
  let spin i =
    Kernel.spawn k ~name:(Printf.sprintf "spin%d" i) (fun () ->
        while true do
          Api.compute (Time.ms 10)
        done)
  in
  let servers = List.init 2 server in
  let clients = List.init 6 client in
  let workers = List.init 5 worker in
  let spins = List.init 3 spin in
  List.iteri (fun i th -> fund th (100 * (i + 1))) servers;
  List.iteri (fun i th -> fund th (50 + (25 * i))) clients;
  List.iteri (fun i th -> fund th (40 * (i + 1))) workers;
  fund producer 20;
  List.iteri (fun i th -> fund th (100 * (i + 1))) spins;
  ignore (Kernel.run k ~until:(Time.seconds 20));
  let entitled =
    List.mapi (fun i th -> (Kernel.thread_id th, float_of_int (100 * (i + 1)))) spins
  in
  let _, p = Obs.Metrics.fairness m ~entitled in
  Obs.Metrics.summary ~entitled m
  ^ Printf.sprintf "chi-square p = %s\n"
      (match p with Some p -> Printf.sprintf "%.17g" p | None -> "none")
  ^ Obs.Metrics.to_prom m

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_metrics_golden () =
  check Alcotest.string "metrics output unchanged"
    (read_file
       (Filename.concat
          (Filename.dirname Sys.executable_name)
          "metrics_golden.expected"))
    (metrics_golden_output ())

(* --- scheduler phase profiler -------------------------------------------------- *)

let test_profile_phases () =
  (* a deterministic fake clock: each call advances 1000 ns, so every timed
     section lasts exactly 1000 ns x (stops between start and stop) *)
  let ticks = ref 0 in
  let clock () =
    ticks := !ticks + 1000;
    !ticks
  in
  let p = Obs.Profile.create ~clock () in
  let t0 = Obs.Profile.start p in
  Obs.Profile.stop p Obs.Profile.Draw t0;
  let t0 = Obs.Profile.start p in
  Obs.Profile.stop p Obs.Profile.Valuation t0;
  checki "draw recorded once" 1 (Obs.Hdr.count (Obs.Profile.hdr p Obs.Profile.Draw));
  checki "draw duration is one tick" 1000
    (Obs.Hdr.sum (Obs.Profile.hdr p Obs.Profile.Draw));
  checki "dispatch untouched" 0
    (Obs.Hdr.count (Obs.Profile.hdr p Obs.Profile.Dispatch));
  let text = Obs.Metrics.profile p in
  List.iter
    (fun n -> checkb (n ^ " named in the report") true (count_substring text n > 0))
    [ "valuation"; "draw"; "dispatch"; "publish" ]

let test_profile_on_live_kernel () =
  (* wire the profiler the way lottosim --profile does, with a fake clock:
     every scheduler phase must accumulate samples on a busy kernel *)
  let ticks = ref 0 in
  let clock () =
    ticks := !ticks + 7;
    !ticks
  in
  let k, ls = lottery_kernel ~seed:4 () in
  let p = Obs.Profile.create ~clock () in
  Kernel.set_profiler k (Some p);
  Lottery_sched.set_profiler ls (Some p);
  let _a = spin_thread k ls "a" 100 in
  let _b = spin_thread k ls "b" 200 in
  ignore (Kernel.run k ~until:(Time.seconds 2));
  List.iter
    (fun ph ->
      checkb
        (Obs.Profile.phase_name ph ^ " sampled")
        true
        (Obs.Hdr.count (Obs.Profile.hdr p ph) > 0))
    [ Obs.Profile.Valuation; Obs.Profile.Draw; Obs.Profile.Dispatch ]

(* --- legacy tracer compatibility --------------------------------------------- *)

let test_legacy_render_format () =
  let a = actor "worker" 4 in
  check Alcotest.string "spawn" "spawn worker" (Obs.Event.render (Spawn { who = a }));
  check Alcotest.string "block" "block worker"
    (Obs.Event.render (Block { who = a; on = "sleep" }));
  check Alcotest.string "wake" "wake worker" (Obs.Event.render (Wake { who = a }));
  check Alcotest.string "select" "select worker"
    (Obs.Event.render (Select { who = a; cpu = 0 }));
  check Alcotest.string "exit ok" "exit worker"
    (Obs.Event.render (Exit { who = a; failure = None }));
  check Alcotest.string "exit failure" "exit worker (boom)"
    (Obs.Event.render (Exit { who = a; failure = Some "boom" }))

(* --- memory under thread churn ----------------------------------------- *)

(* The churn world in List mode, [Lottery_sched.create]'s default, bare and
   observed; the budget row churn/live-words-per-kill is the observed world
   in Tree mode (test_budget). *)
let test_churn_flat_heap () =
  let bare = Fixtures.churn_growth (fun _ -> []) in
  let observed =
    Fixtures.churn_growth (fun bus ->
        (* T's 1,968 deaths are past the registry's 1,024 retained dead
           rows; the span tracer and the recorder at small bounds, so both
           are full by T *)
        let m = Obs.Metrics.create () in
        Obs.Metrics.attach m bus;
        let s = Obs.Span.create ~retain:64 () in
        Obs.Span.attach s bus;
        let r = Obs.Recorder.create ~capacity:4096 () in
        Obs.Recorder.attach r bus;
        [ Obj.repr m; Obj.repr s; Obj.repr r ])
  in
  if bare > 1. then Alcotest.failf "no subscriber: %.2f live words per kill" bare;
  if observed > 1. then
    Alcotest.failf "metrics+span+recorder: %.2f live words per kill" observed

let exit_ev name tid = Obs.Event.Exit { who = actor name tid; failure = None }

let test_metrics_retain_evicts () =
  let m = Obs.Metrics.create () in
  let feed t ev = Obs.Metrics.on_event m t ev in
  let name tid = Printf.sprintf "t%d" tid in
  let preempt tid used why =
    Obs.Event.Preempt { who = actor (name tid) tid; used; quantum = 100; why }
  in
  for tid = 1 to 5 do
    feed tid (select (name tid) tid);
    feed tid (preempt tid (10 * tid) Obs.Event.End_quantum)
  done;
  (* t2 exits while running, in the kernel's order: its [Exit], then the
     [End_exit] of its last slice, whose ticks still count *)
  feed 10 (exit_ev "t2" 2);
  feed 10 (preempt 2 7 Obs.Event.End_exit);
  List.iter (fun tid -> feed 10 (exit_ev (name tid) tid)) [ 1; 4 ];
  (* 1,022 more deaths: the 1,025th evicts the oldest, t2 *)
  for tid = 100 to 1121 do
    feed 11 (exit_ev (name tid) tid)
  done;
  checki "the oldest death beyond 1,024 is evicted" 1 (Obs.Metrics.evicted m);
  let names () =
    List.map (fun (s : Obs.Metrics.snapshot) -> s.name) (Obs.Metrics.snapshots m)
  in
  check
    Alcotest.(list string)
    "live and retained rows, first-seen order" [ "t1"; "t3"; "t4"; "t5" ]
    (List.filteri (fun i _ -> i < 4) (names ()));
  checki "the total keeps the evicted quanta" 157 (Obs.Metrics.total_quanta m);
  (* a retained dead row still answers; an evicted one fails loudly *)
  let rows, _ = Obs.Metrics.fairness m ~entitled:[ (1, 1.); (3, 1.) ] in
  checki "retained dead row compared" 2 (List.length rows);
  (match Obs.Metrics.fairness m ~entitled:[ (2, 1.); (3, 1.) ] with
  | _ -> Alcotest.fail "an evicted tid read as absent"
  | exception Invalid_argument _ -> ());
  (* above every evicted tid, an unknown tid is still just absent *)
  let rows, _ = Obs.Metrics.fairness m ~entitled:[ (3, 1.); (99, 1.) ] in
  checki "unknown tid excluded" 1 (List.length rows);
  (* a drop-oldest shed of a message the evicted thread left queued makes
     no row for it *)
  feed 20
    (Obs.Event.Rpc_shed
       { who = actor "t2" 2; port = "p"; msg_id = 9; reason = "drop-oldest";
         parent = None });
  checki "no row made for the evicted tid" 1026 (List.length (names ()));
  checki "and the total is unchanged" 157 (Obs.Metrics.total_quanta m)

(* an evicted row leaves the tid cache too, so nothing keeps it live. The
   filler threads' tids are multiples of 256, so none of them takes the
   evicted thread's cache slot. *)
let test_metrics_evicted_row_unreachable () =
  let m = Obs.Metrics.create () in
  let die k = Obs.Metrics.on_event m 0 (exit_ev "filler" (256 * k)) in
  (* 1,025 deaths, so the table has grown to its steady size *)
  for k = 1 to 1025 do
    die k
  done;
  let before = live_words () in
  Obs.Metrics.on_event m 0 (select "gone" 7);
  let with_row = live_words () in
  Obs.Metrics.on_event m 1 (exit_ev "gone" 7);
  for k = 1026 to 2049 do
    die k
  done;
  let after = live_words () in
  ignore (Sys.opaque_identity m);
  checkb "the row was live" true (with_row - before > 1500);
  checkb "the evicted row is not" true (after - before < 200);
  checki "every death beyond 1,024 evicted" 1026 (Obs.Metrics.evicted m)

let () =
  Alcotest.run "obs"
    [
      ( "json-checker",
        [ Alcotest.test_case "accepts valid, rejects invalid" `Quick
            test_json_checker_self_test ] );
      ( "bus",
        [
          Alcotest.test_case "fan-out and unsubscribe" `Quick
            test_bus_fanout_and_unsubscribe;
          Alcotest.test_case "churn during delivery" `Quick
            test_bus_churn_during_delivery;
          Alcotest.test_case "subscribe during delivery" `Quick
            test_bus_subscribe_during_delivery;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "chrome json valid + escaped" `Quick
            test_chrome_json_valid_and_escaped;
          Alcotest.test_case "chrome json after wraparound" `Quick
            test_chrome_json_wrapped_open_slice;
          Alcotest.test_case "csv shape" `Quick test_csv_shape;
          Alcotest.test_case "trace window metadata" `Quick
            test_trace_window_metadata;
          Alcotest.test_case "csv flags dropped events" `Quick
            test_csv_dropped_comment;
        ] );
      ( "hdr",
        [
          Alcotest.test_case "exact below sub-bucket resolution" `Quick
            test_hdr_exact_region;
          Alcotest.test_case "quantiles within documented error (1e6 samples)"
            `Slow test_hdr_vs_exact_quantiles;
          Alcotest.test_case "clamping, copy and reset" `Quick
            test_hdr_clamping_and_reset;
          Alcotest.test_case "merge" `Quick test_hdr_merge;
          Alcotest.test_case "buckets match the bit loop" `Quick
            test_hdr_buckets_match_bit_loop;
        ] );
      ( "spans",
        [
          Alcotest.test_case "roundtrip spans + flow events" `Quick
            test_span_roundtrip_and_flow_events;
          Alcotest.test_case "nested rpc parenting" `Quick
            test_span_nested_parenting;
          Alcotest.test_case "client killed -> reply dropped" `Quick
            test_span_client_killed_reply_dropped;
          Alcotest.test_case "server killed -> orphaned" `Quick
            test_span_server_killed_orphans;
          Alcotest.test_case "finalize flags unfinished" `Quick
            test_span_finalize_flags_unfinished;
          Alcotest.test_case "scatter-gather spans" `Quick
            test_span_scatter_gather;
          Alcotest.test_case "eviction bounds memory" `Quick
            test_span_eviction_bounds_memory;
          Alcotest.test_case "double deaths evicted" `Quick
            test_span_double_death_evicts;
        ] );
      ( "stream",
        [
          Alcotest.test_case "typed stream deterministic" `Quick
            test_typed_stream_deterministic;
          Alcotest.test_case "multiple subscribers, full stream" `Quick
            test_multi_subscriber_full_stream;
          Alcotest.test_case "cached events name the slot's occupant" `Quick
            test_event_cache_names_current_occupant;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "quanta match kernel accounting" `Quick
            test_metrics_quanta_match_kernel;
          Alcotest.test_case "wait-time samples" `Quick test_metrics_wait_time;
          Alcotest.test_case "fairness gauge" `Quick test_fairness_gauge;
          Alcotest.test_case "fairness undefined without data" `Quick
            test_fairness_none_when_undefined;
          Alcotest.test_case "fairness dedupes duplicate tids" `Quick
            test_fairness_dedupes_duplicate_tids;
          Alcotest.test_case "fairness under heterogeneous quanta" `Quick
            test_fairness_heterogeneous_quanta;
          Alcotest.test_case "histogram percentiles, no raw retention" `Quick
            test_metrics_histogram_default;
          Alcotest.test_case "prometheus exposition" `Quick
            test_metrics_prom_exposition;
          Alcotest.test_case "golden rpc/mutex/semaphore output" `Quick
            test_metrics_golden;
          QCheck_alcotest.to_alcotest qcheck_metrics_match_naive_fold;
          Alcotest.test_case "retain evicts the oldest dead rows" `Quick
            test_metrics_retain_evicts;
          Alcotest.test_case "an evicted row is unreachable" `Quick
            test_metrics_evicted_row_unreachable;
        ] );
      ( "churn",
        [ Alcotest.test_case "live heap flat under thread churn" `Quick
            test_churn_flat_heap ] );
      ( "profile",
        [
          Alcotest.test_case "phase accumulation" `Quick test_profile_phases;
          Alcotest.test_case "live kernel phases sampled" `Quick
            test_profile_on_live_kernel;
        ] );
      ( "legacy",
        [ Alcotest.test_case "render matches old tracer" `Quick
            test_legacy_render_format ] );
    ]
