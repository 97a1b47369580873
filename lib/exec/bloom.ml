(** Runtime join filters: a Bloom filter over join-key tuples plus a
    per-key min-max summary — see bloom.mli.

    Built on the build side of a hash join (one filter per segment, over
    exactly the rows that segment inserted into its hash table), merged by
    the coordinator into a single filter, and applied on the probe side:
    the Bloom bits drop rows before the per-row hash-table probe, and the
    min-max summary intersects with partition-index restrictions to drop
    whole partitions.

    Representation follows {!Mpp_catalog.Bitset}: an [int array] of
    [Sys.int_size]-bit words, sized to a power of two so probe positions
    are a mask instead of a modulo.  Sizing is {e deterministic} in the
    planner's cardinality estimate (never in the observed row count), so
    every segment builds an identically-shaped filter and the coordinator
    can merge them word-by-word.

    NULL semantics: a key tuple containing NULL is never inserted and
    never passes {!mem} — a NULL join key cannot equal anything, so probe
    rows carrying one are unmatchable under Inner, Semi and build-side
    outer joins alike. *)

open Mpp_expr

(* Bits are addressed in 32-bit sub-words (each array element uses its low
   32 bits only): word index and bit position become a shift and a mask
   instead of division/modulo by the 63-bit native word size.  The probe
   loop runs once per probe-side row, so the addressing arithmetic is the
   hot path. *)
let bits_per_word = 32

(* Sizing policy (the "deterministic with a hard cap" contract):
   ~12 bits per expected key, rounded up to a power of two, clamped to
   [min_bits, max_bits].  With k = 4 probes and m/n = 12 the false-positive
   rate is about (1 - e^{-4/12})^4 ~ 0.7%. *)
let bits_per_key = 12
let min_bits = 256
let max_bits = 1 lsl 20
let nprobes = 4

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let bits_for ~expected =
  let wanted = max 1 expected * bits_per_key in
  min max_bits (max min_bits (next_pow2 wanted))

type t = {
  nkeys : int;
  nbits : int;  (** power of two *)
  mask : int;
  words : int array;
  mutable count : int;  (** key tuples inserted (non-NULL) *)
  mins : Value.t array;
      (** per key position; [Null] while empty (a NULL key is never
          inserted, so [Null] never stands for a seen value) *)
  maxs : Value.t array;
}

let create ~nkeys ~expected =
  if nkeys <= 0 then invalid_arg "Bloom.create: nkeys must be positive";
  let nbits = bits_for ~expected in
  {
    nkeys;
    nbits;
    mask = nbits - 1;
    words = Array.make ((nbits + bits_per_word - 1) / bits_per_word) 0;
    count = 0;
    mins = Array.make nkeys Value.Null;
    maxs = Array.make nkeys Value.Null;
  }

let nkeys t = t.nkeys
let nbits t = t.nbits
let count t = t.count

let set_bit words i =
  let w = i lsr 5 in
  words.(w) <- words.(w) lor (1 lsl (i land 31))

let get_bit words i = words.(i lsr 5) land (1 lsl (i land 31)) <> 0

(* Whether probes [i .. nprobes-1] of the double-hashing sequence
   [h1 + i * h2] all find their bit set.  A top-level loop over its
   arguments, with no local closure: a probe allocates nothing. *)
let rec all_set words mask h1 h2 i =
  i >= nprobes
  || get_bit words ((h1 + (i * h2)) land mask)
     && all_set words mask h1 h2 (i + 1)

(* Keep [v] at [slot] of a min ([sign] = -1) or max ([sign] = 1) summary
   when it extends it. *)
let widen (bounds : Value.t array) sign slot v =
  match Array.unsafe_get bounds slot with
  | Value.Null -> Array.unsafe_set bounds slot v
  | b -> if sign * Value.compare v b > 0 then Array.unsafe_set bounds slot v

(* One well-mixed hash of the key tuple ({!Value.tuple_hash}, so a filter
   agrees with SQL [=]: an integral float key hits the bits its equal int
   set), then double hashing for the k probe positions: position_i = h1 +
   i * h2 (mod nbits), h2 odd so the probe sequence walks the whole
   (power-of-two-sized) table. *)
let add t keys =
  if Array.length keys <> t.nkeys then invalid_arg "Bloom.add: key arity";
  if not (Value.has_null keys) then begin
    let h1 = Value.tuple_hash keys in
    let h2 = Value.mix h1 lor 1 in
    for i = 0 to nprobes - 1 do
      set_bit t.words ((h1 + (i * h2)) land t.mask)
    done;
    t.count <- t.count + 1;
    for k = 0 to t.nkeys - 1 do
      let v = Array.unsafe_get keys k in
      widen t.mins (-1) k v;
      widen t.maxs 1 k v
    done
  end

let mem1 t v =
  if t.nkeys <> 1 then invalid_arg "Bloom.mem1: key arity";
  (not (Value.is_null v))
  &&
  (* identical probe positions to {!mem} on [\[| v |\]]: same seed, same
     per-component fold, same double hashing *)
  let h1 = Value.tuple_hash1 v in
  all_set t.words t.mask h1 (Value.mix h1 lor 1) 0

let mem t keys =
  if Array.length keys <> t.nkeys then invalid_arg "Bloom.mem: key arity";
  (not (Value.has_null keys))
  &&
  let h1 = Value.tuple_hash keys in
  all_set t.words t.mask h1 (Value.mix h1 lor 1) 0

let minmax t ~key =
  if key < 0 || key >= t.nkeys then invalid_arg "Bloom.minmax: key";
  match (t.mins.(key), t.maxs.(key)) with
  | Value.Null, _ | _, Value.Null -> None
  | lo, hi -> Some (lo, hi)

let union_into ~into src =
  if into.nkeys <> src.nkeys || into.nbits <> src.nbits then
    invalid_arg "Bloom.union_into: shape mismatch";
  for w = 0 to Array.length into.words - 1 do
    into.words.(w) <- into.words.(w) lor src.words.(w)
  done;
  into.count <- into.count + src.count;
  for k = 0 to into.nkeys - 1 do
    (match src.mins.(k) with Value.Null -> () | v -> widen into.mins (-1) k v);
    match src.maxs.(k) with Value.Null -> () | v -> widen into.maxs 1 k v
  done

let merge = function
  | [] -> None
  | first :: rest ->
      let acc =
        {
          first with
          words = Array.copy first.words;
          mins = Array.copy first.mins;
          maxs = Array.copy first.maxs;
        }
      in
      List.iter (fun src -> union_into ~into:acc src) rest;
      Some acc

(* SWAR popcount, as in Bitset. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let fill t =
  let set = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words in
  float_of_int set /. float_of_int t.nbits

let pp fmt t =
  Format.fprintf fmt "bloom(%d keys, %d bits, %d entries, %.1f%% full)"
    t.nkeys t.nbits t.count (100.0 *. fill t)
