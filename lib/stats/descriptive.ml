let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty input")

let sum xs =
  (* Kahan summation: experiments accumulate millions of small samples and
     naive summation loses precision on the fairness tolerances we assert. *)
  let total = ref 0. and comp = ref 0. in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t)
    xs;
  !total

let mean xs =
  check_nonempty "Descriptive.mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Descriptive.variance" xs;
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let coefficient_of_variation xs =
  let m = mean xs in
  if m = 0. then invalid_arg "Descriptive.coefficient_of_variation: zero mean";
  stddev xs /. m

let minimum xs =
  check_nonempty "Descriptive.minimum" xs;
  Array.fold_left min xs.(0) xs

let maximum xs =
  check_nonempty "Descriptive.maximum" xs;
  Array.fold_left max xs.(0) xs

let sorted_copy xs =
  let copy = Array.copy xs in
  Array.sort compare copy;
  copy

let median xs =
  check_nonempty "Descriptive.median" xs;
  let s = sorted_copy xs in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let percentile xs p =
  check_nonempty "Descriptive.percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Descriptive.percentile: p out of range";
  let s = sorted_copy xs in
  let n = Array.length s in
  if n = 1 then s.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let mean_list xs = mean (Array.of_list xs)

module Running = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  let stderr_of_mean t =
    if t.n < 2 then infinity else stddev t /. sqrt (float_of_int t.n)
end

let linear_fit points =
  let n = Array.length points in
  if n < 2 then invalid_arg "Descriptive.linear_fit: need at least two points";
  let sx = ref 0. and sy = ref 0. in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y)
    points;
  let mx = !sx /. float_of_int n and my = !sy /. float_of_int n in
  let sxx = ref 0. and sxy = ref 0. in
  Array.iter
    (fun (x, y) ->
      let dx = x -. mx in
      sxx := !sxx +. (dx *. dx);
      sxy := !sxy +. (dx *. (y -. my)))
    points;
  if !sxx = 0. then invalid_arg "Descriptive.linear_fit: zero x-variance";
  let b = !sxy /. !sxx in
  (my -. (b *. mx), b)

let ratio_error ~observed ~expected =
  if expected = 0. then invalid_arg "Descriptive.ratio_error: zero expected";
  abs_float (observed -. expected) /. expected
