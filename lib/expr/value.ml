(** SQL values and their types.

    This module is the common currency of the whole system: tuples are
    [Value.t array]s, partition bounds are [Value.t]s, and the expression
    evaluator produces [Value.t]s.  SQL [NULL] is an explicit constructor and
    all comparison helpers implement SQL's three-valued semantics where a
    comparison against [Null] is unknown (represented as [None]). *)

type datatype = Tbool | Tint | Tfloat | Tstring | Tdate

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of Date.t

let datatype_of = function
  | Null -> None
  | Bool _ -> Some Tbool
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | String _ -> Some Tstring
  | Date _ -> Some Tdate

let datatype_to_string = function
  | Tbool -> "bool"
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstring -> "text"
  | Tdate -> "date"

let comparable a b =
  match (a, b) with
  | (Tint | Tfloat), (Tint | Tfloat) -> true
  | _ -> a = b

let date_of_string s = Date (Date.of_string s)

(** Structural total order, used for sorting and data structures.  [Null]
    sorts first; values of distinct types sort by type.  Ints and floats are
    compared numerically so that mixed-type keys behave sanely. *)
let compare a b =
  let rank = function
    | Null -> 0
    | Bool _ -> 1
    | Int _ -> 2
    | Float _ -> 2
    | String _ -> 3
    | Date _ -> 4
  in
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | Date x, Date y -> Date.compare x y
  | (Null | Bool _ | Int _ | Float _ | String _ | Date _), _ ->
      Int.compare (rank a) (rank b)

(* Equality under {!compare}, matched on the constructor pair so the common
   same-type cases are a single comparison — no rank closure, no [int]
   result to test.  Ints and floats are equal when numerically equal. *)
let equal a b =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | Date x, Date y -> Int.equal (x : Date.t :> int) (y : Date.t :> int)
  | String x, String y -> String.equal x y
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Float x, Float y -> Float.compare x y = 0
  | Int x, Float y -> Float.compare (float_of_int x) y = 0
  | Float x, Int y -> Float.compare x (float_of_int y) = 0
  | (Null | Bool _ | Int _ | Float _ | String _ | Date _), _ -> false

(** SQL comparison: [None] when either side is [Null] (unknown). *)
let sql_compare a b =
  match (a, b) with Null, _ | _, Null -> None | _ -> Some (compare a b)

let is_null = function Null -> true | _ -> false

(* A top-level loop: [Array.exists] would allocate a closure per call. *)
let rec has_null_from (vs : t array) i =
  i < Array.length vs
  && (is_null (Array.unsafe_get vs i) || has_null_from vs (i + 1))

let has_null vs = has_null_from vs 0

let to_bool = function
  | Bool b -> Some b
  | Null -> None
  | _ -> invalid_arg "Value.to_bool: not a boolean"

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> invalid_arg ("Value.to_float: " ^ (match datatype_of v with
      | Some d -> datatype_to_string d
      | None -> "null"))

let to_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | _ -> invalid_arg "Value.to_int"

(* The placement hash: which segment a hash-distributed tuple lives on,
   and where a Redistribute Motion sends a row.  Stored data is laid out
   by it, so it changes only where it must agree with {!equal}: an
   integral float (either zero included) hashes as the int it equals, the
   way {!key_hash} does, so [Int 1] and [Float 1.0] land on one segment. *)
let hash = function
  | Null -> 0
  | Bool b -> Hashtbl.hash b
  | Int i -> Hashtbl.hash i
  | Float f ->
      if Float.is_integer f && f >= -0x1p62 && f < 0x1p62 then
        Hashtbl.hash (int_of_float f)
      else Hashtbl.hash f
  | String s -> Hashtbl.hash s
  | Date d -> Hashtbl.hash (d : Date.t :> int)

(* 64-bit finalizer (splitmix64 style); the multiplier constants are the
   splitmix64 ones wrapped into OCaml's 63-bit native int (written as
   Int64 literals — the plain hex form would not parse). *)
let mix_c1 = Int64.to_int 0xbf58476d1ce4e5b9L
let mix_c2 = Int64.to_int 0x94d049bb133111ebL

let mix h =
  let h = (h lxor (h lsr 30)) * mix_c1 in
  let h = (h lxor (h lsr 27)) * mix_c2 in
  (h lxor (h lsr 31)) land max_int

let float_bits f = Int64.to_int (Int64.bits_of_float f)

(* The hash for hash tables and Bloom filters.  Scalar constructors are
   mixed directly — the generic runtime hash is an out-of-line C call that
   dominates a single-int probe.  Integral floats hash as the int they
   equal (and every NaN alike), so the hash agrees with {!equal} across
   Int and Float. *)
let key_hash = function
  | Int i -> mix i
  | Date d -> mix (d : Date.t :> int)
  | Float f ->
      if Float.is_integer f && f >= -0x1p62 && f < 0x1p62 then
        mix (int_of_float f)
      else if Float.is_nan f then mix (float_bits Float.nan)
      else mix (float_bits f)
  | Bool b -> mix (if b then 1 else 2)
  | Null -> 0
  | String s -> Hashtbl.hash s

(* A key tuple's hash: the component hashes folded through {!mix} from a
   fixed seed.  [tuple_hash1 v] equals [tuple_hash [| v |]]. *)
let tuple_seed = Int64.to_int 0x9e3779b97f4a7c15L

let tuple_hash (keys : t array) =
  let h = ref tuple_seed in
  for i = 0 to Array.length keys - 1 do
    h := mix ((!h * 31) + key_hash (Array.unsafe_get keys i))
  done;
  !h

let tuple_hash1 v = mix ((tuple_seed * 31) + key_hash v)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = key_hash
end)

let to_string = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> "'" ^ s ^ "'"
  | Date d -> "'" ^ Date.to_string d ^ "'"

let pp fmt v = Format.pp_print_string fmt (to_string v)

(** Size in bytes a value occupies when a plan or tuple is serialized; used
    by the plan-size model (paper §4.4). *)
let serialized_size = function
  | Null -> 1
  | Bool _ -> 1
  | Int _ -> 8
  | Float _ -> 8
  | String s -> 4 + String.length s
  | Date _ -> 4
