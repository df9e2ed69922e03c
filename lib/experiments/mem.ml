module Im = Lotto_res.Inverse_memory
module Rng = Lotto_prng.Rng

type client_row = {
  name : string;
  tickets : int;
  resident : int;
  faults : int;
  fault_rate : float;
}

type policy_result = { policy : string; clients : client_row array }
type t = { results : policy_result array }

let policy_name = function
  | Im.Inverse_lottery -> "inverse-lottery"
  | Im.Global_lru -> "global-lru"
  | Im.Global_random -> "global-random"

let frames = 300
let working_set = 400

let one ~seed ~steps policy =
  let rng = Rng.create ~algo:Splitmix64 ~seed () in
  let pool = Im.create ~policy ~frames ~rng () in
  let specs = [ ("gold", 300); ("silver", 200); ("bronze", 100) ] in
  let clients =
    List.map
      (fun (name, tickets) -> Im.add_client pool ~name ~tickets ~working_set)
      specs
  in
  Im.simulate pool ~steps;
  {
    policy = policy_name policy;
    clients =
      Array.of_list
        (List.map2
           (fun (name, tickets) c ->
             {
               name;
               tickets;
               resident = Im.resident pool c;
               faults = Im.faults pool c;
               fault_rate =
                 float_of_int (Im.faults pool c)
                 /. float_of_int (max 1 (Im.accesses pool c));
             })
           specs clients);
  }

let run ?(seed = 62) ?(steps = 300_000) () =
  {
    results =
      Array.of_list
        (List.map
           (one ~seed ~steps)
           [ Im.Inverse_lottery; Im.Global_lru; Im.Global_random ]);
  }

let print t =
  Common.print_header "Section 6.2: inverse-lottery page replacement (3:2:1)";
  Array.iter
    (fun r ->
      Common.print_kv "policy" "%s" r.policy;
      Common.print_row [ "client"; "tickets"; "resident"; "faults"; "fault rate" ];
      Array.iter
        (fun c ->
          Common.print_row
            [
              c.name;
              string_of_int c.tickets;
              Printf.sprintf "%4d" c.resident;
              Printf.sprintf "%6d" c.faults;
              Printf.sprintf "%.3f" c.fault_rate;
            ])
        r.clients)
    t.results

let inverse_residents t =
  let r =
    Array.to_list t.results
    |> List.find (fun r -> r.policy = "inverse-lottery")
  in
  Array.map (fun c -> c.resident) r.clients

let to_csv t =
  Common.csv ~header:[ "policy"; "client"; "tickets"; "resident"; "faults"; "fault_rate" ]
    (Array.to_list t.results
    |> List.concat_map (fun r ->
           Array.to_list r.clients
           |> List.map (fun c ->
                  [
                    r.policy;
                    c.name;
                    string_of_int c.tickets;
                    string_of_int c.resident;
                    string_of_int c.faults;
                    Common.f c.fault_rate;
                  ])))
