(** The metadata catalog: OID allocation and table lookup by name or OID.
    Leaf partitions register alongside their root so storage can locate a
    partition's tuples from its OID alone (paper §2.1). *)

type t

val create : unit -> t
val alloc_oid : t -> int

val add_table :
  t ->
  name:string ->
  columns:(string * Mpp_expr.Value.datatype) list ->
  distribution:Distribution.t ->
  ?partitioning:Partition.t ->
  unit ->
  Table.t
(** Registers a table; [partitioning] must have been built with this
    catalog's {!alloc_oid}.  Raises [Invalid_argument] on duplicates. *)

val find : t -> string -> Table.t
(** Raises [Invalid_argument] for unknown names. *)

val find_opt : t -> string -> Table.t option

val find_oid : t -> int -> Table.t
(** Lookup by root OID; raises [Invalid_argument] when absent. *)

val find_oid_opt : t -> int -> Table.t option
(** Lookup by root OID; [None] when absent (a leaf OID is absent too). *)

val root_of : t -> int -> int
(** The root OID of the table an OID belongs to: a leaf's partitioned
    root, any other OID itself. *)

val tables : t -> Table.t list
(** All registered tables, by ascending OID. *)

val generation : t -> int
(** Monotone DDL generation stamp: starts at 0 and increments on every
    {!add_table} (and on explicit {!bump_generation}).  Plan caches record
    the generation a plan was optimized under and drop entries whose stamp
    no longer matches. *)

val bump_generation : t -> unit
(** Force an invalidation without a schema change — e.g. after a bulk load
    that shifts the statistics a cached plan was costed against. *)
