(** The executor's one key table: an open-addressing hash table from keys
    to [int] values, used by the hash-join build and probe, hash
    aggregation and DELETE's multiset of deleted tuple images.

    A key is a fixed number ([width]) of {!Mpp_expr.Value.t} components:
    one value (a one-element array), or a tuple.  Keys hash with {!hash}
    and compare with {!Mpp_expr.Value.equal}, component by component — SQL [=], so [Int 1] and [Float 1.0] are one
    key, as are two NaNs, and [Null] equals only [Null] (callers that must
    not match NULL keys skip them).

    Entries are numbered [0 .. length - 1] in first-insertion order, and
    callers address them by that number: a hash aggregation's groups are
    its entries, in first-seen order.  Keys, hashes and values live in
    parallel flat arrays, so a lookup or an insertion of a present key
    allocates nothing; a new key's components are copied into the table,
    never the caller's array. *)

open Mpp_expr

type t

val create : width:int -> init:int -> int -> t
(** [create ~width ~init n]: an empty table of [width]-component keys
    sized for about [n] entries (it grows as needed); a new entry's value
    starts as [init].  Raises [Invalid_argument] when [width < 1]. *)

val length : t -> int
(** Number of entries (distinct keys). *)

val hash : Value.t array -> int
(** A key's hash: its first component's {!Mpp_expr.Value.key_hash}, with
    any further components folded in through {!Mpp_expr.Value.mix}, so a
    one-value key costs one {!Mpp_expr.Value.key_hash}.  Raises
    [Invalid_argument] on an empty key. *)

val find : t -> Value.t array -> int
(** The entry of the key [keys] (as long as the table's width), or [-1].
    [keys] is only read. *)

val intern : t -> Value.t array -> int
(** The entry of [keys], added when absent: its components are copied, so
    the caller may reuse [keys] as scratch. *)

val key : t -> int -> int -> Value.t
(** [key t e j]: component [j] of entry [e]'s key.  Unchecked. *)

val get : t -> int -> int
(** Entry [e]'s value.  Unchecked: [0 <= e < length t]. *)

val set : t -> int -> int -> unit
(** Set entry [e]'s value.  Unchecked. *)
