type algo = Park_miller | Splitmix64

type impl =
  | Pm of Park_miller.t
  | Sm of Splitmix64.t

type t = { algo : algo; impl : impl }

(* 61 random bits from a 64-bit output: keeps values strictly below
   OCaml's max_int with room for rejection-sampling arithmetic. *)
let bits61 = 61
let range61 = 1 lsl bits61

let create ?(algo = Park_miller) ~seed () =
  let impl =
    match algo with
    | Park_miller -> Pm (Park_miller.create ~seed)
    | Splitmix64 -> Sm (Splitmix64.create ~seed)
  in
  { algo; impl }

let algo t = t.algo

let name t =
  match t.algo with
  | Park_miller -> "park-miller"
  | Splitmix64 -> "splitmix64"

let copy t =
  let impl =
    match t.impl with
    | Pm g -> Pm (Park_miller.copy g)
    | Sm g -> Sm (Splitmix64.copy g)
  in
  { t with impl }

let top61 x = Int64.to_int (Int64.shift_right_logical x (64 - bits61))

let raw t =
  match t.impl with
  | Pm g -> Park_miller.next g - 1 (* [0, modulus - 2] *)
  | Sm g -> top61 (Splitmix64.next_int64 g)

let raw_range t =
  match t.impl with Pm _ -> Park_miller.modulus - 1 | Sm _ -> range61

(* Rejection sampling on the largest multiple of [n] below the raw range,
   as a closure-free loop: a draw allocates nothing (with Park–Miller; the
   64-bit generator boxes an Int64 per raw draw). Past Park–Miller's
   single-draw range two draws are composed; range^2 <= 2^62 still fits in
   a native int. *)
let[@inline] below t n =
  if n <= 0 then invalid_arg "Rng.int_below: n <= 0";
  let range = raw_range t in
  if n <= range then begin
    let limit = range - (range mod n) in
    let r = ref (raw t) in
    while !r >= limit do
      r := raw t
    done;
    !r mod n
  end
  else if range <= 0x80000000 then begin
    let big = range * range in
    if n > big then invalid_arg "Rng.int_below: n exceeds generator range";
    let limit = big - (big mod n) in
    let r = ref ((raw t * range) + raw t) in
    while !r >= limit do
      r := (raw t * range) + raw t
    done;
    !r mod n
  end
  else invalid_arg "Rng.int_below: n exceeds generator range"

let int_below t n = below t n

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int_below t (hi - lo + 1)

(* For the draw hot paths, which turn this into a float locally: [below]
   inlined at a constant n, so its divisions by n compile to shifts. 2^53
   exceeds Park–Miller's single-draw range, so two draws are composed
   there; SplitMix64 uses a single 61-bit draw. *)
let bits53 t = below t (1 lsl 53)

let float_unit t = float_of_int (bits53 t) /. float_of_int (1 lsl 53)

let bool t = int_below t 2 = 1

(* the one definition of the exponential deviate, inlined into both entry
   points so neither boxes it on the way *)
let[@inline] deviate t mean =
  let u = 1. -. float_unit t in
  -.mean *. log u

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean <= 0";
  deviate t mean

let exponential_at t ~mean dst i =
  if mean <= 0. then invalid_arg "Rng.exponential_at: mean <= 0";
  dst.(i) <- deviate t mean

let gaussian t ~mu ~sigma =
  let u1 = 1. -. float_unit t in
  let u2 = float_unit t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int_below t (Array.length arr))

let split t =
  (* Scramble the drawn value through a SplitMix64 step: for an LCG like
     Park-Miller, seeding a child directly with a parent draw would create
     a stream identical to the parent's (same recurrence, same state). *)
  let sm = Splitmix64.create ~seed:(int_below t 0x3FFFFFFF) in
  let seed = 1 + (Int64.to_int (Int64.shift_right_logical (Splitmix64.next_int64 sm) 34)) in
  create ~algo:t.algo ~seed ()
