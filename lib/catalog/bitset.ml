(** Fixed-width bitsets over leaf-partition indices — see bitset.mli.

    Representation: an [int array] of [Sys.int_size]-bit words (63 on
    64-bit).  The invariant that bits at or beyond [length] are clear is
    maintained by every operation ({!full} masks its last word), so the
    word-parallel queries ([cardinal], [is_empty], [equal]) need no
    per-query masking. *)

let bits_per_word = Sys.int_size

type t = { len : int; words : int array }

let nwords len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  { len; words = Array.make (nwords len) 0 }

let full len =
  if len < 0 then invalid_arg "Bitset.full: negative length";
  let n = nwords len in
  let words = Array.make n (-1) in
  (* clear the ghost bits of the last word *)
  let rem = len - ((n - 1) * bits_per_word) in
  if n > 0 && rem < bits_per_word then
    words.(n - 1) <- (1 lsl rem) - 1;
  { len; words }

let length t = t.len

let set t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset.set: index out of range";
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let mem t i =
  if i < 0 || i >= t.len then false
  else t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let check_same_len op a b =
  if a.len <> b.len then invalid_arg ("Bitset." ^ op ^ ": length mismatch")

let union_into ~into src =
  check_same_len "union_into" into src;
  for w = 0 to Array.length into.words - 1 do
    into.words.(w) <- into.words.(w) lor src.words.(w)
  done

let inter_into ~into src =
  check_same_len "inter_into" into src;
  for w = 0 to Array.length into.words - 1 do
    into.words.(w) <- into.words.(w) land src.words.(w)
  done

let set_list t l = List.iter (set t) l
let set_array t a =
  for i = 0 to Array.length a - 1 do
    set t (Array.unsafe_get a i)
  done

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* SWAR popcount on the non-negative word images; OCaml ints are 63-bit so
   the 64-bit constants truncate harmlessly. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let cardinal t =
  Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let fold_right_set f t init =
  let acc = ref init in
  let n = Array.length t.words in
  for wi = n - 1 downto 0 do
    let w = t.words.(wi) in
    if w <> 0 then begin
      let base = wi * bits_per_word in
      for b = bits_per_word - 1 downto 0 do
        if w land (1 lsl b) <> 0 then acc := f (base + b) !acc
      done
    end
  done;
  !acc

let first_set t =
  let n = Array.length t.words in
  let rec go wi =
    if wi >= n then None
    else
      let w = t.words.(wi) in
      if w = 0 then go (wi + 1)
      else begin
        let i = ref (wi * bits_per_word) and w = ref w in
        while !w land 1 = 0 do
          w := !w lsr 1;
          incr i
        done;
        Some !i
      end
  in
  go 0

let to_list t = fold_right_set (fun i acc -> i :: acc) t []

let copy t = { len = t.len; words = Array.copy t.words }

let equal a b = a.len = b.len && a.words = b.words
