(* Log-linear bucketing (the HdrHistogram construction):

     index(v) = v                                          for v < 2^sub_bits
              = (msb(v) - sub_bits + 1) * 2^sub_bits
                + (top sub_bits+1 bits of v) - 2^sub_bits  otherwise

   so each power-of-two range [2^m, 2^(m+1)) is cut into 2^sub_bits linear
   sub-buckets of width 2^(m - sub_bits): bucket width / bucket floor is at
   most 2^-sub_bits, the advertised relative-error bound. The linear region
   below 2^sub_bits has unit buckets (exact). *)

type t = {
  sub_bits : int;
  sub : int;  (* 2^sub_bits *)
  max_value : int;
  counts : int array;
  mutable total : int;
  mutable clamped : int;
  mutable sum : int;  (* of exact (unclamped) sample values *)
  mutable min_v : int;
  mutable max_v : int;
}

(* Position of the highest set bit of [v] (0 for [v <= 1]): a binary
   search in six halving steps over the 63-bit int, so {!record} costs the
   same at every magnitude and allocates nothing. *)
let msb_pos v =
  let h = v lsr 32 in
  let n = if h <> 0 then 32 else 0 in
  let v = if h <> 0 then h else v in
  let h = v lsr 16 in
  let n = if h <> 0 then n + 16 else n in
  let v = if h <> 0 then h else v in
  let h = v lsr 8 in
  let n = if h <> 0 then n + 8 else n in
  let v = if h <> 0 then h else v in
  let h = v lsr 4 in
  let n = if h <> 0 then n + 4 else n in
  let v = if h <> 0 then h else v in
  let h = v lsr 2 in
  let n = if h <> 0 then n + 2 else n in
  let v = if h <> 0 then h else v in
  n + (v lsr 1)

let bucket_count ~sub_bits ~sub ~max_value =
  (msb_pos max_value - sub_bits + 2) * sub

let create ?(sub_bits = 5) ?(max_value = 1 lsl 30) () =
  if sub_bits < 1 || sub_bits > 16 then invalid_arg "Hdr.create: sub_bits out of range";
  let sub = 1 lsl sub_bits in
  if max_value < sub then invalid_arg "Hdr.create: max_value < 2^sub_bits";
  {
    sub_bits;
    sub;
    max_value;
    counts = Array.make (bucket_count ~sub_bits ~sub ~max_value) 0;
    total = 0;
    clamped = 0;
    sum = 0;
    min_v = max_int;
    max_v = min_int;
  }

let[@inline] index t v =
  if v < t.sub then v
  else begin
    let m = msb_pos v in
    let shift = m - t.sub_bits in
    ((shift + 1) * t.sub) + (v lsr shift) - t.sub
  end

let record t v =
  let v = if v < 0 then 0 else v in
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  let v =
    if v > t.max_value then begin
      t.clamped <- t.clamped + 1;
      t.max_value
    end
    else v
  in
  let i = index t v in
  Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1)

let count t = t.total
let clamped t = t.clamped
let sum t = t.sum

let check_nonempty name t = if t.total = 0 then invalid_arg (name ^ ": empty histogram")

let min_value t =
  check_nonempty "Hdr.min_value" t;
  t.min_v

let max_value_seen t =
  check_nonempty "Hdr.max_value_seen" t;
  t.max_v

(* inclusive value bounds of bucket [i] *)
let bounds t i =
  if i < t.sub then (i, i)
  else begin
    let shift = (i / t.sub) - 1 in
    let lo = ((i mod t.sub) + t.sub) lsl shift in
    (lo, lo + (1 lsl shift) - 1)
  end

let percentile t p =
  check_nonempty "Hdr.percentile" t;
  if p < 0. || p > 100. then invalid_arg "Hdr.percentile: p out of range";
  let target =
    let r = int_of_float (ceil (p /. 100. *. float_of_int t.total)) in
    if r < 1 then 1 else if r > t.total then t.total else r
  in
  let n = Array.length t.counts in
  let rec walk i cum =
    if i >= n then t.max_v (* unreachable: counts sum to total *)
    else begin
      let cum = cum + t.counts.(i) in
      if cum >= target then begin
        let lo, hi = bounds t i in
        (lo + hi + 1) / 2
      end
      else walk (i + 1) cum
    end
  in
  let mid = walk 0 0 in
  let v = if mid < t.min_v then t.min_v else if mid > t.max_v then t.max_v else mid in
  float_of_int v

let max_relative_error t = 1. /. float_of_int t.sub

let merge ~into src =
  if into.sub_bits <> src.sub_bits || into.max_value <> src.max_value then
    invalid_arg "Hdr.merge: mismatched histogram parameters";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.total <- into.total + src.total;
  into.clamped <- into.clamped + src.clamped;
  into.sum <- into.sum + src.sum;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v

let copy t =
  {
    t with
    counts = Array.copy t.counts;
  }

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.clamped <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- min_int

let iter_buckets t f =
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let lo, hi = bounds t i in
        f ~lo ~hi ~count:c
      end)
    t.counts
