(** The executor's one key table — see keytbl.mli.

    Entries are numbered densely in insertion order.  Entry [e]'s key
    components sit at [keys.(e * width) .. keys.(e * width + width - 1)],
    its hash at [hashes.(e)] and its value at [vals.(e)].  An
    open-addressing slot array (a power of two, at most half full) maps
    [hash land mask] onto entry numbers, probing linearly; a free slot
    holds -1.  Growth doubles the entry arrays and rebuilds the slots from
    the stored hashes, so no key is ever hashed twice.  Every operation
    below is a loop over flat arrays: nothing is allocated per probe. *)

open Mpp_expr

type t = {
  width : int;
  init : int;
  mutable len : int;
  mutable keys : Value.t array;
  mutable hashes : int array;
  mutable vals : int array;
  mutable slots : int array;
  mutable mask : int;
}

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

let create ~width ~init expected =
  if width < 1 then invalid_arg "Keytbl.create: width must be positive";
  let cap = pow2_at_least (max 8 expected) 8 in
  {
    width;
    init;
    len = 0;
    keys = Array.make (cap * width) Value.Null;
    hashes = Array.make cap 0;
    vals = Array.make cap init;
    slots = Array.make (2 * cap) (-1);
    mask = (2 * cap) - 1;
  }

let length t = t.len
let key t e j = Array.unsafe_get t.keys ((e * t.width) + j)
let get t e = Array.unsafe_get t.vals e
let set t e v = Array.unsafe_set t.vals e v

(* The first free slot on [h]'s probe sequence; only for a hash known to
   be absent (rebuilding after growth, or inserting after a miss). *)
let free_slot slots mask h =
  let i = ref (h land mask) in
  while Array.unsafe_get slots !i >= 0 do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let cap = Array.length t.hashes * 2 in
  let keys = Array.make (cap * t.width) Value.Null in
  Array.blit t.keys 0 keys 0 (t.len * t.width);
  let hashes = Array.make cap 0 in
  Array.blit t.hashes 0 hashes 0 t.len;
  let vals = Array.make cap t.init in
  Array.blit t.vals 0 vals 0 t.len;
  let slots = Array.make (2 * cap) (-1) and mask = (2 * cap) - 1 in
  for e = 0 to t.len - 1 do
    Array.unsafe_set slots (free_slot slots mask (Array.unsafe_get hashes e)) e
  done;
  t.keys <- keys;
  t.hashes <- hashes;
  t.vals <- vals;
  t.slots <- slots;
  t.mask <- mask

(* Whether entry [e]'s key equals [probe.(0 .. width-1)]. *)
let equal_at t e (probe : Value.t array) =
  let base = e * t.width in
  let j = ref 0 in
  while
    !j < t.width
    && Value.equal (Array.unsafe_get t.keys (base + !j))
         (Array.unsafe_get probe !j)
  do
    incr j
  done;
  !j = t.width

(* Probe results: the entry when found, otherwise [-1 - slot] — the free
   slot where the key would go. *)
let probe t h (keys : Value.t array) =
  let slots = t.slots and mask = t.mask in
  let i = ref (h land mask) and res = ref 0 and searching = ref true in
  while !searching do
    let e = Array.unsafe_get slots !i in
    if e < 0 then begin
      res := -1 - !i;
      searching := false
    end
    else if Array.unsafe_get t.hashes e = h && equal_at t e keys then begin
      res := e;
      searching := false
    end
    else i := (!i + 1) land mask
  done;
  !res

(* Append a new entry for a key known to be absent, at free slot [slot]
   (re-found when the arrays had to grow first). *)
let add_entry t ~slot h =
  let slot =
    if t.len < Array.length t.hashes then slot
    else begin
      grow t;
      free_slot t.slots t.mask h
    end
  in
  let e = t.len in
  Array.unsafe_set t.slots slot e;
  Array.unsafe_set t.hashes e h;
  t.len <- e + 1;
  e

let check_width t keys what =
  if Array.length keys <> t.width then
    invalid_arg ("Keytbl." ^ what ^ ": key width")

let hash (keys : Value.t array) =
  let h = ref (Value.key_hash keys.(0)) in
  for i = 1 to Array.length keys - 1 do
    h := Value.mix ((!h * 31) + Value.key_hash (Array.unsafe_get keys i))
  done;
  !h

let find t keys =
  check_width t keys "find";
  let r = probe t (hash keys) keys in
  if r >= 0 then r else -1

let intern t keys =
  check_width t keys "intern";
  let h = hash keys in
  let r = probe t h keys in
  if r >= 0 then r
  else begin
    let e = add_entry t ~slot:(-1 - r) h in
    Array.blit keys 0 t.keys (e * t.width) t.width;
    e
  end
