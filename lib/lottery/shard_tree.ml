(* The inter-shard coordinator of the sharded CPU lottery: a flat 1-based
   partial-sum binary tree whose leaves are per-shard live ticket masses —
   the inter-node tree of the paper's §4.2 distributed lottery, with one
   [Draw.t] per shard as each node's local lottery. Every operation is
   allocation-free: set bubbles a delta to the root, pick descends from it,
   and both are O(log shards). *)

type t = {
  shards : int;
  leaves : int; (* power of two >= shards *)
  sums : float array; (* 1-based; leaf i lives at [leaves + i] *)
}

let create ~shards =
  if shards <= 0 then invalid_arg "Shard_tree.create: shards <= 0";
  let rec up c = if c >= shards then c else up (c * 2) in
  let leaves = up 1 in
  { shards; leaves; sums = Array.make (2 * leaves) 0. }

let shards t = t.shards

let check t i =
  if i < 0 || i >= t.shards then invalid_arg "Shard_tree: shard out of range"

(* [@inline] on the float readers and writers: a cross-module caller
   compiled against this module's .cmx keeps the float unboxed *)
let[@inline] get t i =
  check t i;
  t.sums.(t.leaves + i)

let[@inline] total t = Float.max 0. t.sums.(1)

(* absolute write: bubble the delta from the leaf to the root *)
let[@inline] set t i v =
  check t i;
  if v < 0. then invalid_arg "Shard_tree.set: negative mass";
  let delta = v -. t.sums.(t.leaves + i) in
  if delta <> 0. then begin
    let j = ref (t.leaves + i) in
    while !j >= 1 do
      t.sums.(!j) <- t.sums.(!j) +. delta;
      j := !j / 2
    done
  end

(* The readers with the result handed over in the caller's flat array:
   called across a module boundary that does not inline (the dev build),
   [get] and [total] box the float they return. *)
let get_at t i dst j = dst.(j) <- get t i
let total_at t dst j = dst.(j) <- total t

(* Relative write, clamped at zero, with the delta read from the caller's
   flat array: the same [get], add and [set] a caller would do, without
   boxing the delta to pass it here. *)
let adjust_at t i src j =
  let v = get t i +. src.(j) in
  set t i (if v > 0. then v else 0.)

(* Ticket-weighted shard pick: descend from the root with a winning value
   in [0, total), preferring the left child unless the value falls past its
   subtree sum (or the right subtree is the only live one). [-1] when no
   shard holds mass. The deviate arrives as its 53 raw bits and is formed
   here exactly as [Rng.float_unit] forms it, so the caller boxes no
   float to pass it. *)
let pick t ~bits =
  let tot = total t in
  if tot <= 0. then -1
  else begin
    let u = float_of_int bits /. float_of_int (1 lsl 53) in
    let winning = ref (u *. tot) in
    let i = ref 1 in
    while !i < t.leaves do
      let left = 2 * !i in
      if !winning < t.sums.(left) || t.sums.(left + 1) <= 0. then i := left
      else begin
        winning := !winning -. t.sums.(left);
        i := left + 1
      end
    done;
    !i - t.leaves
  end

(* Least-loaded shard (lowest id on ties): the deterministic placement
   policy. A linear scan — shard counts are CPU counts, not client
   counts. *)
let min_shard t =
  let best = ref 0 in
  let best_mass = ref t.sums.(t.leaves) in
  for i = 1 to t.shards - 1 do
    let m = t.sums.(t.leaves + i) in
    if m < !best_mass then begin
      best := i;
      best_mass := m
    end
  done;
  !best

(* Most-loaded shard (lowest id on ties): the rebalance source. *)
let max_shard t =
  let best = ref 0 in
  let best_mass = ref t.sums.(t.leaves) in
  for i = 1 to t.shards - 1 do
    let m = t.sums.(t.leaves + i) in
    if m > !best_mass then begin
      best := i;
      best_mass := m
    end
  done;
  !best
