type t = {
  cap : int;
  buf : (int * Event.t) option array;
  mutable next : int;  (** write cursor *)
  mutable seen : int;
  mutable sub : Bus.subscription option;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity <= 0";
  { cap = capacity; buf = Array.make capacity None; next = 0; seen = 0; sub = None }

let record t time ev =
  t.buf.(t.next) <- Some (time, ev);
  t.next <- (t.next + 1) mod t.cap;
  t.seen <- t.seen + 1

let attach t bus =
  if t.sub <> None then invalid_arg "Recorder.attach: already attached";
  t.sub <- Some (Bus.subscribe ~name:"recorder" bus (fun time ev -> record t time ev))

let detach t =
  match t.sub with
  | Some s ->
      Bus.unsubscribe s;
      t.sub <- None
  | None -> ()

let capacity t = t.cap
let length t = min t.seen t.cap
let seen t = t.seen
let dropped t = max 0 (t.seen - t.cap)

let events t =
  let n = length t in
  let start = if t.seen <= t.cap then 0 else t.next in
  List.init n (fun i ->
      match t.buf.((start + i) mod t.cap) with
      | Some e -> e
      | None -> assert false)

let clear t =
  Array.fill t.buf 0 t.cap None;
  t.next <- 0;
  t.seen <- 0

(* --- Chrome trace-event JSON ------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  let first = ref true in
  let obj fields =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":%s" k v))
      fields;
    Buffer.add_char buf '}'
  in
  let str s = "\"" ^ json_escape s ^ "\"" in
  let base ~name ~ph ~ts ~tid extra =
    obj
      ([ ("name", str name); ("ph", str ph); ("ts", string_of_int ts);
         ("pid", "1"); ("tid", string_of_int tid) ]
      @ extra)
  in
  let args kvs =
    [ ( "args",
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) kvs)
        ^ "}" ) ]
  in
  let instant ~name ~ts ~tid extra =
    base ~name ~ph:"i" ~ts ~tid (("s", str "t") :: extra)
  in
  (* flow events ("s"/"t"/"f") are bound to each other by (cat, name, id);
     one rpc:<msg_id> flow per request *)
  let flow ~ph ~ts ~tid ~id extra =
    obj
      ([ ("name", str "rpc"); ("cat", str "rpc"); ("ph", str ph);
         ("id", string_of_int id); ("ts", string_of_int ts);
         ("pid", "1"); ("tid", string_of_int tid) ]
      @ extra)
  in
  (* tids with an open B slice: the ring may have dropped a Select whose
     Preempt survived; only close slices we opened. *)
  let open_slices = Hashtbl.create 16 in
  Buffer.add_string buf "[\n";
  (* capture-window metadata first: a wrapped ring is detectable from the
     file alone, not just from whoever held the recorder *)
  obj
    [ ("name", str "trace_window"); ("ph", str "M"); ("ts", "0");
      ("pid", "1"); ("tid", "0");
      ( "args",
        Printf.sprintf "{\"seen\":%d,\"capacity\":%d,\"dropped\":%d}" t.seen
          t.cap (dropped t) ) ];
  (* thread-name metadata so Perfetto labels the tracks *)
  let named = Hashtbl.create 16 in
  let evs = events t in
  List.iter
    (fun (_, ev) ->
      let a = Event.who ev in
      if not (Hashtbl.mem named a.Event.tid) then begin
        Hashtbl.replace named a.Event.tid ();
        obj
          [ ("name", str "thread_name"); ("ph", str "M"); ("ts", "0");
            ("pid", "1"); ("tid", string_of_int a.Event.tid);
            ("args", "{\"name\":" ^ str a.Event.tname ^ "}") ]
      end)
    evs;
  let last_ts = ref 0 in
  List.iter
    (fun (ts, ev) ->
      last_ts := max !last_ts ts;
      match ev with
      | Event.Select { who; _ } ->
          Hashtbl.replace open_slices who.Event.tid who.Event.tname;
          base ~name:who.Event.tname ~ph:"B" ~ts ~tid:who.Event.tid []
      | Event.Preempt { who; used; quantum; why } ->
          if Hashtbl.mem open_slices who.Event.tid then begin
            Hashtbl.remove open_slices who.Event.tid;
            base ~name:who.Event.tname ~ph:"E" ~ts ~tid:who.Event.tid
              (args
                 [ ("used", string_of_int used);
                   ("quantum", string_of_int quantum);
                   ("end", str (Event.slice_end_tag why)) ])
          end
      | Event.Block { who; on } ->
          instant ~name:("block:" ^ on) ~ts ~tid:who.Event.tid []
      | Event.Wake { who } -> instant ~name:"wake" ~ts ~tid:who.Event.tid []
      | Event.Spawn { who } -> instant ~name:"spawn" ~ts ~tid:who.Event.tid []
      | Event.Exit { who; failure } ->
          instant ~name:"exit" ~ts ~tid:who.Event.tid
            (match failure with
            | None -> []
            | Some e -> args [ ("failure", str e) ])
      | Event.Donate { src; dst } ->
          instant ~name:"donate" ~ts ~tid:src.Event.tid
            (args [ ("to", str dst.Event.tname) ])
      | Event.Compensate { who; factor } ->
          instant ~name:"compensate" ~ts ~tid:who.Event.tid
            (args [ ("factor", Printf.sprintf "%.6g" factor) ])
      | Event.Lock_acquire { who; mutex; contended } ->
          instant ~name:("lock:" ^ mutex) ~ts ~tid:who.Event.tid
            (args [ ("contended", if contended then "true" else "false") ])
      | Event.Lock_release { who; mutex } ->
          instant ~name:("unlock:" ^ mutex) ~ts ~tid:who.Event.tid []
      | Event.Rpc_send { who; port; msg_id; parent } ->
          instant ~name:("rpc:" ^ port) ~ts ~tid:who.Event.tid
            (args
               (("msg", string_of_int msg_id)
               ::
               (match parent with
               | None -> []
               | Some p -> [ ("parent", string_of_int p) ])));
          (* flow start: the request leaves the client track here *)
          flow ~ph:"s" ~ts ~tid:who.Event.tid ~id:msg_id []
      | Event.Rpc_recv { who; port; msg_id; sender } ->
          instant ~name:("recv:" ^ port) ~ts ~tid:who.Event.tid
            (args [ ("msg", string_of_int msg_id); ("from", str sender.Event.tname) ]);
          (* flow step: picked up on the server track *)
          flow ~ph:"t" ~ts ~tid:who.Event.tid ~id:msg_id []
      | Event.Rpc_reply { who; client; msg_id } ->
          instant ~name:"reply" ~ts ~tid:who.Event.tid
            (args [ ("to", str client.Event.tname); ("msg", string_of_int msg_id) ]);
          (* flow finish: the reply lands back on the client track *)
          flow ~ph:"f" ~ts ~tid:client.Event.tid ~id:msg_id
            [ ("bp", str "e") ]
      | Event.Resource_draw { who; resource; contenders; total_weight } ->
          instant ~name:("draw:" ^ resource) ~ts ~tid:who.Event.tid
            (args
               [ ("winner", str who.Event.tname);
                 ("contenders", string_of_int contenders);
                 ("total", Printf.sprintf "%.6g" total_weight) ])
      | Event.Rpc_reply_dropped { who; client; msg_id; reason } ->
          instant ~name:"reply-dropped" ~ts ~tid:who.Event.tid
            (args
               [ ("to", str client.Event.tname); ("msg", string_of_int msg_id);
                 ("reason", str reason) ])
      | Event.Rpc_shed { who; port; msg_id; reason; _ } ->
          instant ~name:("shed:" ^ port) ~ts ~tid:who.Event.tid
            (args [ ("msg", string_of_int msg_id); ("reason", str reason) ])
      | Event.Fault_injected { who; fault } ->
          instant ~name:"fault" ~ts ~tid:who.Event.tid (args [ ("fault", str fault) ])
      | Event.Invariant_violation { who; what } ->
          instant ~name:"invariant-violation" ~ts ~tid:who.Event.tid
            (args [ ("what", str what) ]))
    evs;
  (* close slices left open at capture end so the JSON is well-balanced *)
  Hashtbl.iter
    (fun tid tname -> base ~name:tname ~ph:"E" ~ts:!last_ts ~tid [])
    open_slices;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(* --- CSV ---------------------------------------------------------------- *)

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then begin
    let buf = Buffer.create (String.length s + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time_us,event,tid,thread,detail\n";
  if dropped t > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "# dropped %d oldest events (ring capacity %d, saw %d): window is \
          incomplete\n"
         (dropped t) t.cap t.seen);
  List.iter
    (fun (ts, ev) ->
      let a = Event.who ev in
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%d,%s,%s\n" ts (Event.tag ev) a.Event.tid
           (csv_quote a.Event.tname)
           (csv_quote (Event.detail ev))))
    (events t);
  Buffer.contents buf
