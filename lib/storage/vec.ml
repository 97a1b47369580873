(** A minimal growable array (OCaml 5.1 predates [Dynarray]).

    [Vec.t] is also the executor's batch representation: a pipeline
    breaker keeps one row vector per segment instead of a cons cell per
    row, so appends are amortized O(1) array stores and iteration is a
    tight [for] loop over a flat array.  The executor treats vectors it is
    handed as immutable — it builds fresh ones ([concat] / [take] /
    [sorted]) rather than mutating what a child (or a live storage heap)
    handed it. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len
let is_empty v = v.len = 0

let push v x =
  let cap = Array.length v.data in
  if v.len = cap then begin
    let ncap = if cap = 0 then 8 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit v.data 0 ndata 0 v.len;
    v.data <- ndata
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

(* No bounds check: for callers that iterate [0 .. length - 1]. *)
let unsafe_get v i = Array.unsafe_get v.data i

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec go i = i < v.len && (p (Array.unsafe_get v.data i) || go (i + 1)) in
  go 0

(* Ensure capacity for [extra] more elements; [seed] initializes any fresh
   slots (never observed — [len] never exceeds the blitted range). *)
let ensure v extra seed =
  let need = v.len + extra in
  let cap = Array.length v.data in
  if need > cap then begin
    let ncap = max need (max 8 (cap * 2)) in
    let ndata = Array.make ncap seed in
    Array.blit v.data 0 ndata 0 v.len;
    v.data <- ndata
  end

(** Append the contents of [src] to [dst] ([src] unchanged): one capacity
    check and one blit, not an element-wise push loop. *)
let append ~dst src =
  if src.len > 0 then begin
    ensure dst src.len (Array.unsafe_get src.data 0);
    Array.blit src.data 0 dst.data dst.len src.len;
    dst.len <- dst.len + src.len
  end

(** Concatenate into a single exactly-sized fresh vector — no doubling
    growth, one allocation.  The DynamicScan's unfiltered multi-partition
    path and Motion gathers are built on this. *)
let concat vs =
  let total = List.fold_left (fun acc v -> acc + v.len) 0 vs in
  if total = 0 then create ()
  else begin
    let seed =
      let v = List.find (fun v -> v.len > 0) vs in
      Array.unsafe_get v.data 0
    in
    let data = Array.make total seed in
    let off = ref 0 in
    List.iter
      (fun v ->
        Array.blit v.data 0 data !off v.len;
        off := !off + v.len)
      vs;
    { data; len = total }
  end

(** Fresh vector with the same contents. *)
let copy v = { data = Array.sub v.data 0 v.len; len = v.len }

(** First [n] elements (all of them if [n >= length]), as a fresh vector. *)
let take n v =
  let n = min (max n 0) v.len in
  { data = Array.sub v.data 0 n; len = n }

(** Stable-sort into a fresh vector; the input is not touched (it may alias
    a live storage heap).  Stability matters: Sort nodes must preserve the
    upstream order of equal-key rows, as the list-based executor did. *)
let sorted cmp v =
  let arr = Array.sub v.data 0 v.len in
  Array.stable_sort cmp arr;
  { data = arr; len = Array.length arr }

let to_array v = Array.sub v.data 0 v.len

let of_array a = { data = Array.copy a; len = Array.length a }

(* Build the list directly (no intermediate array copy): scans of large
   heaps would otherwise allocate the whole heap once more per scan. *)
let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (v.data.(i) :: acc) in
  go (v.len - 1) []

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v
