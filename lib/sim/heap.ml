(* Three parallel arrays instead of an array of cells: a push writes two ints
   and one value and allocates nothing once the arrays have grown. A vacated
   value cell is reset to [dummy], so a dropped entry keeps nothing alive. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  dummy : 'a;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy =
  {
    keys = Array.make 16 0;
    seqs = Array.make 16 0;
    vals = Array.make 16 dummy;
    dummy;
    size = 0;
    next_seq = 0;
  }

(* entry [i] orders strictly before the entry (key, seq) *)
let[@inline] before t i ~key ~seq =
  let ki = t.keys.(i) in
  ki < key || (ki = key && t.seqs.(i) < seq)

let[@inline] move t ~src ~dst =
  t.keys.(dst) <- t.keys.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.vals.(dst) <- t.vals.(src)

let[@inline] place t i ~key ~seq v =
  t.keys.(i) <- key;
  t.seqs.(i) <- seq;
  t.vals.(i) <- v

let grow t =
  let n = 2 * Array.length t.keys in
  let widen a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.keys <- widen t.keys 0;
  t.seqs <- widen t.seqs 0;
  t.vals <- widen t.vals t.dummy

(* Sift a hole up from [size] and drop the new entry into it. *)
let push t ~key v =
  if t.size = Array.length t.keys then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && not (before t ((!i - 1) / 2) ~key ~seq) do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  place t !i ~key ~seq v

(* Non-allocating accessors for the kernel's timer hot loop: callers check
   [is_empty] first (the heap must be non-empty). *)
let min_key t = t.keys.(0)
let min_elt t = t.vals.(0)

(* Move the last entry into a hole sifted down from the root. *)
let drop_min t =
  let last = t.size - 1 in
  t.size <- last;
  let key = t.keys.(last) and seq = t.seqs.(last) and v = t.vals.(last) in
  t.vals.(last) <- t.dummy;
  if last > 0 then begin
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && before t r ~key:t.keys.(l) ~seq:t.seqs.(l) then r else l
        in
        if before t c ~key ~seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else sifting := false
      end
    done;
    place t !i ~key ~seq v
  end

let size t = t.size
let is_empty t = t.size = 0

let iter t f =
  for i = 0 to t.size - 1 do
    f ~key:t.keys.(i) t.vals.(i)
  done
