(* Arrival order is [front @ List.rev back]. *)
type 'a t = { mutable front : 'a list; mutable back : 'a list; mutable len : int }

let create () = { front = []; back = []; len = 0 }
let is_empty q = q.len = 0
let length q = q.len

let push q x =
  q.back <- x :: q.back;
  q.len <- q.len + 1

let pop q =
  (match q.front with
  | [] ->
      if q.back = [] then invalid_arg "Waitq.pop: empty queue";
      q.front <- List.rev q.back;
      q.back <- []
  | _ :: _ -> ());
  match q.front with
  | x :: rest ->
      q.front <- rest;
      q.len <- q.len - 1;
      x
  | [] -> assert false

let to_list q =
  match q.back with [] -> q.front | back -> q.front @ List.rev back

let remove q x =
  let rec go acc = function
    | [] -> ()
    | y :: rest when y == x ->
        q.front <- List.rev_append acc rest;
        q.back <- [];
        q.len <- q.len - 1
    | y :: rest -> go (y :: acc) rest
  in
  go [] (to_list q)

let rotate q = if q.len > 0 then push q (pop q)

let iter f q =
  List.iter f q.front;
  match q.back with [] -> () | back -> List.iter f (List.rev back)

let count p q =
  let n l = List.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 l in
  n q.front + n q.back
