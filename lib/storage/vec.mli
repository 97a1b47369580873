(** A minimal growable array (OCaml 5.1 predates [Dynarray]) — also the
    executor's per-segment row-batch representation at pipeline breakers.
    The executor treats vectors it is handed as immutable and builds fresh
    ones. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] out of bounds. *)

val unsafe_get : 'a t -> int -> 'a
(** No bounds check; for tight loops over [0 .. length - 1]. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val exists : ('a -> bool) -> 'a t -> bool

val append : dst:'a t -> 'a t -> unit
(** Append the source's contents to [dst] (one capacity check + blit); the
    source is unchanged. *)

val concat : 'a t list -> 'a t
(** Concatenate into a single exactly-sized fresh vector: one allocation,
    no doubling growth. *)

val copy : 'a t -> 'a t

val take : int -> 'a t -> 'a t
(** First [n] elements (all if fewer), as a fresh vector. *)

val sorted : ('a -> 'a -> int) -> 'a t -> 'a t
(** Sort into a fresh vector; the input is untouched. *)

val to_array : 'a t -> 'a array
val of_array : 'a array -> 'a t

val to_list : 'a t -> 'a list
(** Builds the list directly, without an intermediate array copy. *)

val of_list : 'a list -> 'a t
