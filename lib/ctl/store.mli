(** Persistent currency/ticket store backing the [lotteryctl] command-line
    interface — the paper's §4.7 user commands ([mktkt], [rmtkt], [mkcur],
    [rmcur], [fund], [unfund], [lstkt], [lscur], [fundx]) over a funding
    graph serialized to a text file.

    Tickets get stable user-facing labels ([t1], [t2], …) that survive
    save/load. The [simulate] command is our [fundx] analog: it replays the
    stored funding graph in a fresh lottery-scheduled kernel with one
    compute-bound thread per {e held} ticket and reports the CPU split.

    Commands execute on behalf of a {e principal} ([exec ~user]) and are
    checked against per-currency owners and grants ({!Lotto_tickets.Acl} —
    the §4.7 protection the Mach prototype lacked): creating tickets in a
    currency requires its [issue] permission, funding a currency requires
    its [fund] permission, and [chown]/[grant]/[ungrant]/[rmcur] require
    [manage]. Ownership and grants persist in the state file. *)

type t

val create : unit -> t

(** {1 Persistence} *)

val save : t -> string
(** Serialize to the line-oriented text format. *)

val load : string -> (t, string) result
(** Parse a previously saved store. *)

val load_file : string -> (t, string) result
(** [Ok (create ())] when the file does not exist. *)

val save_file : t -> string -> (unit, string) result

(** {1 Commands} *)

type cmd =
  | Mkcur of string
  | Rmcur of string
  | Mktkt of { amount : int; denom : string }
      (** issue a new (unattached) ticket, returns its label *)
  | Rmtkt of string
  | Fund of { ticket : string; currency : string }
  | Unfund of string
  | Hold of string  (** mark a ticket as held by a competing client *)
  | Release of string
  | Lscur
  | Lstkt
  | Eval  (** base-unit value of every currency and ticket *)
  | Draw of { n : int; seed : int }
      (** hold [n] lotteries among held tickets, report win counts *)
  | Simulate of { seconds : int; seed : int }  (** the fundx analog *)
  | Dot  (** Graphviz rendering of the funding graph *)
  | Chown of { currency : string; new_owner : string }
  | Grant of { currency : string; principal : string; perm : string }
  | Ungrant of { currency : string; principal : string; perm : string }

val parse_command : string list -> (cmd, string) result
(** Parse argv-style words, e.g. [["fund"; "t3"; "alice"]]. *)

val exec : ?user:string -> t -> cmd -> (string, string) result
(** Execute as [user] (default ["root"], which owns the base currency),
    returning human-readable output. Mutates the store. *)

val system : t -> Lotto_tickets.Funding.system
(** The underlying funding graph (for tests). *)
