module Ls = Lotto_sched.Lottery_sched
open Lotto_sim

let lottery_setup ?mode ?(quantum = Time.ms 100) ?use_compensation ~seed () =
  let rng = Lotto_prng.Rng.create ~seed () in
  let ls = Ls.create ?mode ?use_compensation ~rng () in
  let kernel = Kernel.create ~quantum ~sched:(Ls.sched ls) () in
  (kernel, ls)

(* Recursive [mkdir -p]: creates missing parent components, tolerates
   pre-existing directories (and the races CI parallelism can produce). *)
let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with
    | Sys_error _ when Sys.is_directory dir -> ()
  end

let ratio a b = if b = 0. then nan else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

let print_header title =
  Printf.printf "\n== %s ==\n" title

let print_kv key fmt =
  Printf.ksprintf (fun s -> Printf.printf "  %-28s %s\n" (key ^ ":") s) fmt

let print_row cells = Printf.printf "  %s\n" (String.concat "\t" cells)

let quote cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let csv ~header rows =
  let line cells = String.concat "," (List.map quote cells) in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"

let f x = Printf.sprintf "%.6g" x
