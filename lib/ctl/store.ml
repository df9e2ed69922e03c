module F = Lotto_tickets.Funding
module Acl = Lotto_tickets.Acl

type entry = { label : string; ticket : F.ticket }

type t = {
  mutable system : F.system;
  mutable acl : Acl.t;
  mutable entries : entry list; (* creation order *)
  mutable next_label : int;
}

let create () =
  let system = F.create_system () in
  { system; acl = Acl.create system; entries = []; next_label = 1 }

let system t = t.system

let find_entry t label = List.find_opt (fun e -> e.label = label) t.entries

let fresh_label t =
  let l = Printf.sprintf "t%d" t.next_label in
  t.next_label <- t.next_label + 1;
  l

(* --- serialization ----------------------------------------------------- *)

let ticket_state sys ticket =
  match F.funds sys ticket with
  | Some c -> "backs:" ^ F.currency_name c
  | None ->
      if F.is_held sys ticket then
        if F.is_active sys ticket then "held:active" else "held:inactive"
      else "unattached"

let perm_word = function Acl.Issue -> "issue" | Acl.Fund -> "fund" | Acl.Manage -> "manage"

let perm_of_word = function
  | "issue" -> Some Acl.Issue
  | "fund" -> Some Acl.Fund
  | "manage" -> Some Acl.Manage
  | _ -> None

let save t =
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
      if not (F.is_base c) then
        Buffer.add_string buf (Printf.sprintf "currency %s\n" (F.currency_name c)))
    (F.currencies t.system);
  List.iter
    (fun c ->
      if not (F.is_base c) then begin
        (match Acl.owner t.acl c with
        | owner when owner <> "root" ->
            Buffer.add_string buf
              (Printf.sprintf "owner %s %s\n" (F.currency_name c) owner)
        | _ -> ()
        | exception Not_found -> ());
        List.iter
          (fun (principal, perm) ->
            Buffer.add_string buf
              (Printf.sprintf "grant %s %s %s\n" (F.currency_name c) principal
                 (perm_word perm)))
          (try List.rev (Acl.grants t.acl c) with Not_found -> [])
      end)
    (F.currencies t.system);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "ticket %s %d %s %s\n" e.label (F.amount t.system e.ticket)
           (F.currency_name (F.denomination e.ticket))
           (ticket_state t.system e.ticket)))
    (List.rev t.entries);
  Buffer.contents buf

let load text =
  let t = create () in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let rec go = function
    | [] -> Ok t
    | line :: rest -> (
        match String.split_on_char ' ' line with
        | [ "currency"; name ] -> (
            match Acl.make_currency t.acl ~as_:"root" ~name with
            | Ok _ -> go rest
            | Error m -> err "%s" m)
        | [ "owner"; name; principal ] -> (
            match F.find_currency t.system name with
            | None -> err "owner line for unknown currency %s" name
            | Some c -> (
                match Acl.chown t.acl ~as_:"root" c principal with
                | Ok () -> go rest
                | Error m -> err "%s" m))
        | [ "grant"; name; principal; perm ] -> (
            match (F.find_currency t.system name, perm_of_word perm) with
            | None, _ -> err "grant line for unknown currency %s" name
            | _, None -> err "bad permission %S" perm
            | Some c, Some p -> (
                (* the original owner granted this; replay as the current
                   owner *)
                match Acl.grant t.acl ~as_:(Acl.owner t.acl c) c principal p with
                | Ok () -> go rest
                | Error m -> err "%s" m))
        | [ "ticket"; label; amount; denom; state ] -> (
            match (int_of_string_opt amount, F.find_currency t.system denom) with
            | None, _ -> err "bad amount in %S" line
            | _, None -> err "unknown denomination %s" denom
            | Some amount, _ when amount < 0 || amount > F.max_amount ->
                err "amount %d out of range [0, %d] in %S" amount F.max_amount line
            | Some amount, Some currency -> (
                let ticket = F.issue t.system ~currency ~amount in
                t.entries <- { label; ticket } :: t.entries;
                (* keep next_label beyond any loaded tN labels *)
                (match
                   if String.length label > 1 && label.[0] = 't' then
                     int_of_string_opt (String.sub label 1 (String.length label - 1))
                   else None
                 with
                | Some n when n >= t.next_label -> t.next_label <- n + 1
                | _ -> ());
                match String.split_on_char ':' state with
                | [ "unattached" ] -> go rest
                | [ "held"; "active" ] ->
                    F.hold t.system ticket;
                    go rest
                | [ "held"; "inactive" ] ->
                    F.hold t.system ticket;
                    F.suspend t.system ticket;
                    go rest
                | [ "backs"; target ] -> (
                    match F.find_currency t.system target with
                    | None -> err "unknown funded currency %s" target
                    | Some c -> (
                        match F.fund t.system ~ticket ~currency:c with
                        | () -> go rest
                        | exception F.Cycle m -> err "cycle: %s" m))
                | _ -> err "bad ticket state %S" state))
        | _ -> err "unparseable line %S" line)
  in
  go lines

let load_file path =
  if not (Sys.file_exists path) then Ok (create ())
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    load text
  end

let save_file t path =
  match open_out_bin path with
  | oc ->
      output_string oc (save t);
      close_out oc;
      Ok ()
  | exception Sys_error m -> Error m

(* --- commands ----------------------------------------------------------- *)

type cmd =
  | Mkcur of string
  | Rmcur of string
  | Mktkt of { amount : int; denom : string }
  | Rmtkt of string
  | Fund of { ticket : string; currency : string }
  | Unfund of string
  | Hold of string
  | Release of string
  | Lscur
  | Lstkt
  | Eval
  | Draw of { n : int; seed : int }
  | Simulate of { seconds : int; seed : int }
  | Dot
  | Chown of { currency : string; new_owner : string }
  | Grant of { currency : string; principal : string; perm : string }
  | Ungrant of { currency : string; principal : string; perm : string }

let parse_command words =
  let int_arg name s k =
    match int_of_string_opt s with
    | Some n -> k n
    | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name s)
  in
  match words with
  | [ "mkcur"; name ] -> Ok (Mkcur name)
  | [ "rmcur"; name ] -> Ok (Rmcur name)
  | [ "mktkt"; amount; denom ] ->
      int_arg "mktkt amount" amount (fun amount -> Ok (Mktkt { amount; denom }))
  | [ "rmtkt"; label ] -> Ok (Rmtkt label)
  | [ "fund"; ticket; currency ] -> Ok (Fund { ticket; currency })
  | [ "unfund"; ticket ] -> Ok (Unfund ticket)
  | [ "hold"; ticket ] -> Ok (Hold ticket)
  | [ "release"; ticket ] -> Ok (Release ticket)
  | [ "lscur" ] -> Ok Lscur
  | [ "dot" ] -> Ok Dot
  | [ "chown"; currency; new_owner ] -> Ok (Chown { currency; new_owner })
  | [ "grant"; currency; principal; perm ] -> Ok (Grant { currency; principal; perm })
  | [ "ungrant"; currency; principal; perm ] ->
      Ok (Ungrant { currency; principal; perm })
  | [ "lstkt" ] -> Ok Lstkt
  | [ "eval" ] -> Ok Eval
  | [ "draw"; n ] -> int_arg "draw count" n (fun n -> Ok (Draw { n; seed = 42 }))
  | [ "draw"; n; seed ] ->
      int_arg "draw count" n (fun n ->
          int_arg "seed" seed (fun seed -> Ok (Draw { n; seed })))
  | [ "simulate"; seconds ] ->
      int_arg "seconds" seconds (fun seconds -> Ok (Simulate { seconds; seed = 42 }))
  | [ "simulate"; seconds; seed ] ->
      int_arg "seconds" seconds (fun seconds ->
          int_arg "seed" seed (fun seed -> Ok (Simulate { seconds; seed })))
  | cmd :: _ -> Error (Printf.sprintf "unknown command %S" cmd)
  | [] -> Error "empty command"

let with_entry t label k =
  match find_entry t label with
  | Some e -> k e
  | None -> Error (Printf.sprintf "no ticket labelled %s" label)

let with_currency t name k =
  match F.find_currency t.system name with
  | Some c -> k c
  | None -> Error (Printf.sprintf "no currency named %s" name)

let describe_ticket t e =
  Printf.sprintf "%-6s %6d.%s  %s" e.label (F.amount t.system e.ticket)
    (F.currency_name (F.denomination e.ticket))
    (ticket_state t.system e.ticket)

(* Replay the stored graph inside a lottery scheduler: every held ticket
   becomes a compute-bound thread funded identically, and the CPU split
   after [seconds] shows what the stored rights are worth. *)
let simulate t ~seconds ~seed =
  let open Lotto_sim in
  let module Ls = Lotto_sched.Lottery_sched in
  let rng = Lotto_prng.Rng.create ~seed () in
  let ls = Ls.create ~rng () in
  let kernel = Kernel.create ~sched:(Ls.sched ls) () in
  (* copy currencies *)
  List.iter
    (fun c ->
      if not (F.is_base c) then ignore (Ls.make_currency ls (F.currency_name c)))
    (F.currencies t.system);
  let lookup name =
    match F.find_currency (Ls.funding ls) name with
    | Some c -> c
    | None -> assert false
  in
  (* copy backing tickets, and one spinner per held ticket *)
  let spinners = ref [] in
  List.iter
    (fun e ->
      let amount = F.amount t.system e.ticket in
      let denom = lookup (F.currency_name (F.denomination e.ticket)) in
      match F.funds t.system e.ticket with
      | Some target ->
          ignore
            (Ls.fund_currency ls ~target:(lookup (F.currency_name target)) ~amount
               ~from:denom)
      | None ->
          if F.is_held t.system e.ticket then begin
            let s = Lotto_workloads.Spinner.spawn kernel ~name:e.label () in
            ignore
              (Ls.fund_thread ls (Lotto_workloads.Spinner.thread s) ~amount
                 ~from:denom);
            spinners := (e.label, s) :: !spinners
          end)
    (List.rev t.entries);
  match !spinners with
  | [] -> Error "no held tickets to simulate"
  | spinners ->
      ignore (Kernel.run kernel ~until:(Time.seconds seconds));
      let total =
        List.fold_left
          (fun acc (_, s) ->
            acc + Kernel.cpu_time (Lotto_workloads.Spinner.thread s))
          0 spinners
      in
      let buf = Buffer.create 128 in
      Buffer.add_string buf
        (Printf.sprintf "simulated %ds of CPU under lottery scheduling:\n" seconds);
      List.iter
        (fun (label, s) ->
          let cpu = Kernel.cpu_time (Lotto_workloads.Spinner.thread s) in
          Buffer.add_string buf
            (Printf.sprintf "  %-6s %5.1f%%  (%d ticks)\n" label
               (100. *. float_of_int cpu /. float_of_int (max 1 total))
               cpu))
        (List.rev spinners);
      Ok (Buffer.contents buf)

let exec ?(user = "root") t cmd =
  match cmd with
  | Mkcur name -> (
      match Acl.make_currency t.acl ~as_:user ~name with
      | Ok _ -> Ok (Printf.sprintf "created currency %s (owner %s)" name user)
      | Error m -> Error m)
  | Rmcur name ->
      with_currency t name (fun c ->
          match Acl.remove_currency t.acl ~as_:user c with
          | Ok () -> Ok (Printf.sprintf "removed currency %s" name)
          | Error m -> Error m)
  | Mktkt { amount; denom } ->
      if amount < 0 then Error "mktkt: negative amount"
      else
        with_currency t denom (fun currency ->
            match Acl.issue t.acl ~as_:user ~currency ~amount with
            | Error m -> Error m
            | Ok ticket ->
                let label = fresh_label t in
                t.entries <- { label; ticket } :: t.entries;
                Ok (Printf.sprintf "created ticket %s = %d.%s" label amount denom))
  | Rmtkt label ->
      with_entry t label (fun e ->
          match Acl.destroy_ticket t.acl ~as_:user e.ticket with
          | Error m -> Error m
          | Ok () ->
              t.entries <- List.filter (fun e' -> e'.label <> label) t.entries;
              Ok (Printf.sprintf "destroyed ticket %s" label))
  | Fund { ticket; currency } ->
      with_entry t ticket (fun e ->
          with_currency t currency (fun c ->
              match Acl.fund t.acl ~as_:user ~ticket:e.ticket ~currency:c with
              | Ok () -> Ok (Printf.sprintf "%s now funds %s" ticket currency)
              | Error m -> Error m))
  | Unfund label ->
      with_entry t label (fun e ->
          match Acl.unfund t.acl ~as_:user e.ticket with
          | Ok () -> Ok (Printf.sprintf "%s unfunded" label)
          | Error m -> Error m)
  | Chown { currency; new_owner } ->
      with_currency t currency (fun c ->
          match Acl.chown t.acl ~as_:user c new_owner with
          | Ok () -> Ok (Printf.sprintf "%s now owned by %s" currency new_owner)
          | Error m -> Error m)
  | Grant { currency; principal; perm } -> (
      match perm_of_word perm with
      | None -> Error (Printf.sprintf "unknown permission %S (issue|fund|manage)" perm)
      | Some p ->
          with_currency t currency (fun c ->
              match Acl.grant t.acl ~as_:user c principal p with
              | Ok () -> Ok (Printf.sprintf "granted %s on %s to %s" perm currency principal)
              | Error m -> Error m))
  | Ungrant { currency; principal; perm } -> (
      match perm_of_word perm with
      | None -> Error (Printf.sprintf "unknown permission %S (issue|fund|manage)" perm)
      | Some p ->
          with_currency t currency (fun c ->
              match Acl.revoke_perm t.acl ~as_:user c principal p with
              | Ok () -> Ok (Printf.sprintf "revoked %s on %s from %s" perm currency principal)
              | Error m -> Error m))
  | Hold label ->
      with_entry t label (fun e ->
          match F.hold t.system e.ticket with
          | () -> Ok (Printf.sprintf "%s is now held (competing)" label)
          | exception Invalid_argument m -> Error m)
  | Release label ->
      with_entry t label (fun e ->
          match F.release t.system e.ticket with
          | () -> Ok (Printf.sprintf "%s released" label)
          | exception Invalid_argument m -> Error m)
  | Lscur ->
      let lines =
        List.map
          (fun c ->
            let owner = try Acl.owner t.acl c with Not_found -> "?" in
            Printf.sprintf "%-12s owner=%-8s active=%d backing=%d issued=%d"
              (F.currency_name c) owner (F.active_amount t.system c)
              (List.length (F.backing_tickets t.system c))
              (List.length (F.issued_tickets t.system c)))
          (F.currencies t.system)
      in
      Ok (String.concat "\n" lines)
  | Lstkt ->
      if t.entries = [] then Ok "(no tickets)"
      else
        Ok (String.concat "\n" (List.rev_map (describe_ticket t) t.entries))
  | Eval ->
      let cur_lines =
        List.map
          (fun c ->
            Printf.sprintf "currency %-12s value=%.2f unit=%.4f" (F.currency_name c)
              (F.currency_value t.system c)
              (F.unit_value t.system c))
          (F.currencies t.system)
      in
      let tkt_lines =
        List.rev_map
          (fun e ->
            Printf.sprintf "ticket   %-12s value=%.2f" e.label
              (F.ticket_value t.system e.ticket))
          t.entries
      in
      Ok (String.concat "\n" (cur_lines @ tkt_lines))
  | Draw { n; seed } ->
      if n <= 0 then Error "draw: need a positive count"
      else begin
        let held = List.filter (fun e -> F.is_held t.system e.ticket) (List.rev t.entries) in
        if held = [] then Error "draw: no held tickets"
        else begin
          let rng = Lotto_prng.Rng.create ~seed () in
          let wins = Hashtbl.create 8 in
          (* unordered list backend, filled in reverse: the prepending list
             then scans tickets in their creation order *)
          let d =
            Lotto_draw.Draw.of_list
              (Lotto_draw.List_lottery.create
                 ~order:Lotto_draw.List_lottery.Unordered ())
          in
          List.iter
            (fun e ->
              ignore
                (Lotto_draw.Draw.add d ~client:e
                   ~weight:(F.ticket_value t.system e.ticket)))
            (List.rev held);
          for _ = 1 to n do
            match Lotto_draw.Draw.draw_client d rng with
            | Some e ->
                Hashtbl.replace wins e.label
                  (1 + Option.value ~default:0 (Hashtbl.find_opt wins e.label))
            | None -> ()
          done;
          let lines =
            List.map
              (fun e ->
                let w = Option.value ~default:0 (Hashtbl.find_opt wins e.label) in
                Printf.sprintf "%-6s %6d wins (%.1f%%)" e.label w
                  (100. *. float_of_int w /. float_of_int n))
              held
          in
          Ok (String.concat "\n" lines)
        end
      end
  | Simulate { seconds; seed } ->
      if seconds <= 0 then Error "simulate: need a positive duration"
      else simulate t ~seconds ~seed
  | Dot -> Ok (F.to_dot t.system)
