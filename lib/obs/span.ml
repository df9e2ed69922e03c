type status =
  | Pending
  | Serving
  | Closed
  | Dropped of string
  | Orphaned of string

type span = {
  id : int;
  port : string;
  client : Event.actor;
  parent : int option;
  sent_at : int;
  mutable server : Event.actor option;
  mutable recv_at : int option;
  mutable closed_at : int option;
  mutable status : status;
  mutable children : int list;
}

type t = {
  retain : int;
  tbl : (int, span) Hashtbl.t;
  (* ids this thread sent and still awaits a reply for / is servicing;
     consulted on [Exit] to flag the dead endpoint's spans *)
  client_open : (int, int list ref) Hashtbl.t;
  serving : (int, int list ref) Hashtbl.t;
  finished : int Queue.t;  (* settled span ids, oldest first, for eviction *)
  mutable n_finished : int;
  mutable total : int;
  mutable evicted : int;
  mutable n_closed : int;
  mutable n_dropped : int;
  mutable n_orphaned : int;
  mutable viols : string list;  (* reverse order *)
  mutable sub : Bus.subscription option;
}

let create ?(retain = 65536) () =
  if retain <= 0 then invalid_arg "Span.create: retain <= 0";
  {
    retain;
    tbl = Hashtbl.create 256;
    client_open = Hashtbl.create 16;
    serving = Hashtbl.create 16;
    finished = Queue.create ();
    n_finished = 0;
    total = 0;
    evicted = 0;
    n_closed = 0;
    n_dropped = 0;
    n_orphaned = 0;
    viols = [];
    sub = None;
  }

let violation t msg = t.viols <- msg :: t.viols

let push_open tbl tid id =
  match Hashtbl.find_opt tbl tid with
  | Some l -> l := id :: !l
  | None -> Hashtbl.replace tbl tid (ref [ id ])

let drop_open tbl tid id =
  match Hashtbl.find_opt tbl tid with
  | None -> ()
  | Some l -> (
      (* settle order is usually LIFO per thread, so try the head first *)
      match !l with
      | x :: rest when x = id -> l := rest
      | _ -> l := List.filter (fun x -> x <> id) !l)

let is_terminal = function
  | Closed | Dropped _ | Orphaned _ -> true
  | Pending | Serving -> false

let status_tag = function
  | Pending -> "pending"
  | Serving -> "serving"
  | Closed -> "closed"
  | Dropped r -> "dropped: " ^ r
  | Orphaned r -> "orphaned: " ^ r

(* queue a span that can see no further event for eviction *)
let retire t id =
  Queue.push id t.finished;
  t.n_finished <- t.n_finished + 1;
  while t.n_finished > t.retain do
    let id = Queue.pop t.finished in
    t.n_finished <- t.n_finished - 1;
    if Hashtbl.mem t.tbl id then begin
      Hashtbl.remove t.tbl id;
      t.evicted <- t.evicted + 1
    end
  done

(* a [Closed]/[Dropped] span leaves the in-flight books: forget it on both
   endpoints and queue it for eviction *)
let settle t s =
  drop_open t.client_open s.client.Event.tid s.id;
  (match s.server with
  | Some srv -> drop_open t.serving srv.Event.tid s.id
  | None -> ());
  retire t s.id

(* one endpoint died ([Exit] has already dropped its books): the span stays
   in the other endpoint's, which may still produce a late
   [Rpc_reply_dropped] or [Rpc_shed] that settles it, or die too — and
   once both are dead, nothing can, so that [Exit] retires it *)
let orphan t s ~now reason =
  t.n_orphaned <- t.n_orphaned + 1;
  s.status <- Orphaned reason;
  s.closed_at <- Some now

let on_event t now ev =
  match ev with
  | Event.Rpc_send { who; port; msg_id; parent } ->
      if Hashtbl.mem t.tbl msg_id then
        violation t (Printf.sprintf "duplicate span id #%d on %s" msg_id port)
      else begin
        let s =
          {
            id = msg_id;
            port;
            client = who;
            parent;
            sent_at = now;
            server = None;
            recv_at = None;
            closed_at = None;
            status = Pending;
            children = [];
          }
        in
        Hashtbl.replace t.tbl msg_id s;
        t.total <- t.total + 1;
        push_open t.client_open who.Event.tid msg_id;
        match parent with
        | None -> ()
        | Some p -> (
            match Hashtbl.find_opt t.tbl p with
            | Some ps -> ps.children <- msg_id :: ps.children
            | None -> ())
      end
  | Event.Rpc_recv { who; msg_id; port; _ } -> (
      match Hashtbl.find_opt t.tbl msg_id with
      | None ->
          violation t (Printf.sprintf "recv of unknown span #%d on %s" msg_id port)
      | Some s ->
          if s.recv_at <> None then
            violation t (Printf.sprintf "span #%d received twice" msg_id)
          else begin
            s.server <- Some who;
            s.recv_at <- Some now;
            push_open t.serving who.Event.tid msg_id;
            (* a span whose client already died stays Orphaned; the server
               is servicing a request nobody waits for *)
            if s.status = Pending then s.status <- Serving
          end)
  | Event.Rpc_reply { msg_id; _ } -> (
      match Hashtbl.find_opt t.tbl msg_id with
      | None ->
          violation t
            (Printf.sprintf "reply to unknown span #%d (double reply or never sent)"
               msg_id)
      | Some s -> (
          match s.status with
          | Serving ->
              s.status <- Closed;
              s.closed_at <- Some now;
              t.n_closed <- t.n_closed + 1;
              settle t s
          | Pending -> violation t (Printf.sprintf "span #%d replied before recv" msg_id)
          | Closed -> violation t (Printf.sprintf "span #%d replied twice" msg_id)
          | Dropped _ | Orphaned _ ->
              violation t
                (Printf.sprintf "reply delivered on dead span #%d" msg_id)))
  | Event.Rpc_reply_dropped { msg_id; reason; _ } -> (
      match Hashtbl.find_opt t.tbl msg_id with
      | None ->
          violation t (Printf.sprintf "dropped reply to unknown span #%d" msg_id)
      | Some s -> (
          match s.status with
          | Serving | Pending ->
              s.status <- Dropped reason;
              s.closed_at <- Some now;
              t.n_dropped <- t.n_dropped + 1;
              settle t s
          | Orphaned _ ->
              (* already flagged when the client died; the server's no-op
                 reply resolves it for good *)
              s.status <- Dropped reason;
              t.n_orphaned <- t.n_orphaned - 1;
              t.n_dropped <- t.n_dropped + 1;
              settle t s
          | Closed | Dropped _ ->
              violation t (Printf.sprintf "span #%d dropped after close" msg_id)))
  | Event.Rpc_shed { who; port; msg_id; reason; parent } -> (
      match Hashtbl.find_opt t.tbl msg_id with
      | None ->
          (* rejected before any [Rpc_send] was emitted (reject-new /
             no-victim): open the span here so every shed request is
             visible in traces, and close it immediately *)
          let s =
            {
              id = msg_id;
              port;
              client = who;
              parent;
              sent_at = now;
              server = None;
              recv_at = None;
              closed_at = Some now;
              status = Dropped ("shed: " ^ reason);
              children = [];
            }
          in
          Hashtbl.replace t.tbl msg_id s;
          t.total <- t.total + 1;
          t.n_dropped <- t.n_dropped + 1;
          (match parent with
          | None -> ()
          | Some p -> (
              match Hashtbl.find_opt t.tbl p with
              | Some ps -> ps.children <- msg_id :: ps.children
              | None -> ()));
          settle t s
      | Some s -> (
          match s.status with
          | Pending ->
              (* a queued request evicted by drop-oldest *)
              s.status <- Dropped ("shed: " ^ reason);
              s.closed_at <- Some now;
              t.n_dropped <- t.n_dropped + 1;
              settle t s
          | Orphaned _ ->
              (* the sender died first; eviction resolves it for good *)
              s.status <- Dropped ("shed: " ^ reason);
              s.closed_at <- Some now;
              t.n_orphaned <- t.n_orphaned - 1;
              t.n_dropped <- t.n_dropped + 1;
              settle t s
          | Serving | Closed | Dropped _ ->
              violation t
                (Printf.sprintf "span #%d shed while %s" msg_id
                   (status_tag s.status))))
  | Event.Exit { who; _ } ->
      let tid = who.Event.tid in
      let endpoint_died books reason =
        match Hashtbl.find_opt books tid with
        | None -> ()
        | Some l ->
            let ids = !l in
            Hashtbl.remove books tid;
            List.iter
              (fun id ->
                match Hashtbl.find_opt t.tbl id with
                | Some { status = Orphaned _; _ } -> retire t id
                | Some s when not (is_terminal s.status) -> orphan t s ~now reason
                | _ -> ())
              ids
      in
      endpoint_died t.serving "server died";
      endpoint_died t.client_open "client died"
  | _ -> ()

let attach t bus =
  if t.sub <> None then invalid_arg "Span.attach: already attached";
  t.sub <- Some (Bus.subscribe ~name:"spans" bus (fun time ev -> on_event t time ev))

let detach t =
  match t.sub with
  | Some s ->
      Bus.unsubscribe s;
      t.sub <- None
  | None -> ()

let finalize t ~now =
  let open_ids =
    Hashtbl.fold
      (fun id s acc -> if is_terminal s.status then acc else id :: acc)
      t.tbl []
  in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.tbl id with
      | Some s -> orphan t s ~now "unfinished at finalize"
      | None -> ())
    open_ids;
  Hashtbl.reset t.client_open;
  Hashtbl.reset t.serving

let spans t =
  (* msg_ids come from the kernel's shared counter, so ascending id is
     send order *)
  Hashtbl.fold (fun _ s acc -> s :: acc) t.tbl []
  |> List.sort (fun a b -> compare a.id b.id)

let iter t f = List.iter f (spans t)

let evicted t = t.evicted
let violations t = List.rev t.viols

type stats = {
  st_total : int;
  st_closed : int;
  st_dropped : int;
  st_orphaned : int;
  st_open : int;
}

let stats t =
  {
    st_total = t.total;
    st_closed = t.n_closed;
    st_dropped = t.n_dropped;
    st_orphaned = t.n_orphaned;
    st_open = t.total - t.n_closed - t.n_dropped - t.n_orphaned;
  }

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
  let str s = "\"" ^ Recorder.json_escape s ^ "\"" in
  Buffer.add_string buf "[\n";
  List.iter
    (fun s ->
      let ev ~ph ~ts ~tid extra =
        obj
          ([ ("name", str s.port); ("cat", str "span"); ("ph", str ph);
             ("id", string_of_int s.id); ("ts", string_of_int ts);
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
      ev ~ph:"b" ~ts:s.sent_at ~tid:s.client.Event.tid
        (args
           (("client", str s.client.Event.tname)
           :: ("status", str (status_tag s.status))
           ::
           (match s.parent with
           | None -> []
           | Some p -> [ ("parent", string_of_int p) ])));
      (match (s.recv_at, s.server) with
      | Some ts, Some srv ->
          ev ~ph:"n" ~ts ~tid:srv.Event.tid
            (args [ ("op", str "recv"); ("server", str srv.Event.tname) ])
      | _ -> ());
      let end_ts =
        match s.closed_at with
        | Some ts -> ts
        | None -> ( match s.recv_at with Some ts -> ts | None -> s.sent_at)
      in
      let end_tid =
        match s.server with Some srv -> srv.Event.tid | None -> s.client.Event.tid
      in
      ev ~ph:"e" ~ts:end_ts ~tid:end_tid [])
    (spans t);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
