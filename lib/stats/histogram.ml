type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable under : int;
  mutable over : int;
  mutable total : int;
}

let create ~lo ~hi ~buckets =
  if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
  if buckets <= 0 then invalid_arg "Histogram.create: buckets <= 0";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int buckets;
    counts = Array.make buckets 0;
    under = 0;
    over = 0;
    total = 0;
  }

let add t x =
  t.total <- t.total + 1;
  if x < t.lo then t.under <- t.under + 1
  else if x >= t.hi then t.over <- t.over + 1
  else begin
    let i = int_of_float ((x -. t.lo) /. t.width) in
    let i = min i (Array.length t.counts - 1) in
    t.counts.(i) <- t.counts.(i) + 1
  end

let total t = t.total
let count t i = t.counts.(i)
let underflow t = t.under
let overflow t = t.over
let bucket_mid t i = t.lo +. ((float_of_int i +. 0.5) *. t.width)

let bucket_range t i =
  let lo = t.lo +. (float_of_int i *. t.width) in
  (lo, lo +. t.width)

let fraction t i =
  if t.total = 0 then 0. else float_of_int t.counts.(i) /. float_of_int t.total

let mode t =
  let best = ref 0 in
  Array.iteri (fun i c -> if c > t.counts.(!best) then best := i) t.counts;
  !best

let render ?(width = 50) t =
  let buf = Buffer.create 256 in
  let peak = Array.fold_left max 1 t.counts in
  Array.iteri
    (fun i c ->
      let bar = c * width / peak in
      Buffer.add_string buf
        (Printf.sprintf "%10.3f | %-*s %d\n" (bucket_mid t i) width
           (String.make bar '#') c))
    t.counts;
  if t.under > 0 then
    Buffer.add_string buf (Printf.sprintf "  underflow: %d\n" t.under);
  if t.over > 0 then
    Buffer.add_string buf (Printf.sprintf "  overflow: %d\n" t.over);
  Buffer.contents buf
