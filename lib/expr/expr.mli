(** Scalar expressions: abstract syntax, three-valued evaluation, and the
    predicate analysis partition selection is built on.

    The optimizer's two entry points:
    - {!find_pred_on_key} — the paper's [FindPredOnKey] (Algorithms 3/4);
    - {!restriction} — reduce a predicate on the partitioning key to an
      {!Interval.Set.t}, realizing [f*_T] (paper §2.1) once intersected with
      the partition constraints.  Deliberately conservative: what cannot be
      analyzed contributes "no restriction", so selection over-approximates
      and never drops a qualifying partition. *)

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge
type arith_op = Add | Sub | Mul | Div | Mod

type t =
  | Const of Value.t
  | Col of Colref.t
  | Param of int  (** prepared-statement parameter, bound at run time *)
  | Cmp of cmp_op * t * t
  | And of t list
  | Or of t list
  | Not of t
  | Arith of arith_op * t * t
  | In_list of t * Value.t list
  | Is_null of t
  | Func of string * t list
      (** uninterpreted function; opaque to partition analysis *)

(** {2 Constructors} *)

val true_ : t
val false_ : t
val col : Colref.t -> t
val int : int -> t
val str : string -> t

val date : string -> t
(** Date constant from ["YYYY-MM-DD"]. *)

val eq : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t

val between : t -> t -> t -> t
(** [BETWEEN lo AND hi], desugared to a conjunction as SQL defines it. *)

val equal : t -> t -> bool

(** {2 Structure} *)

val conjuncts : t -> t list
(** Flatten nested conjunctions; [true] vanishes. *)

val conj : t list -> t
(** The paper's [Conj]: conjunction with [true] as unit. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** The one read-only walk: pre-order, [f] on a node before its operands,
    the operands left to right ([Cmp]'s and [Arith]'s left before right,
    list members in order).  Builds no list per node. *)

val map : (t -> t) -> t -> t
(** The one rebuilding walk: bottom-up, a node's operands are rebuilt
    first and [f] is then applied to the rebuilt node (leaves included).
    Operands are visited right to left on [Cmp] and [Arith] (the right
    operand first) and in order in lists; a stateful [f] sees them in
    that order — the plan cache numbers lifted literals by it.  IN-list
    members are values, not expressions, and are not visited. *)

val free_cols : t -> Colref.t list
(** Column references in {!fold} order, repeats kept. *)

val rels : t -> int list
(** Relation instances referenced. *)

val subst_cols : (Colref.t -> Value.t option) -> t -> t
(** Replace known columns with constants — the run-time specialization of a
    join predicate with the current outer tuple before selection. *)

val bind_params : (int -> Value.t option) -> t -> t
(** Replace bound parameters with constants. *)

(** {2 Evaluation} *)

type env = { col : Colref.t -> Value.t; param : int -> Value.t }

val eval : env -> t -> Value.t
(** SQL three-valued logic: boolean results may be [Value.Null]. *)

val eval_pred : env -> t -> bool
(** As a filter: only [true] keeps the row; [false] and unknown reject. *)

(** {2 Compilation}

    The executor's hot path: resolve every column reference to a fixed tuple
    offset once (via [resolve], typically built from an operator's output
    layout) and bind parameters at compile time, returning a closure over
    flat rows.  The interpreted analogue of the paper's code-generated
    selection functions (§3.2, Figure 15): no per-row environment
    allocation, no per-row layout search, no per-row operator dispatch. *)

val compile :
  resolve:(Colref.t -> int) ->
  params:Value.t array ->
  t ->
  Value.t array ->
  Value.t
(** [resolve] may raise for out-of-scope columns — raised at compile time,
    not per row.  Unbound parameters raise on first evaluation. *)

val compile_pred :
  resolve:(Colref.t -> int) ->
  params:Value.t array ->
  t ->
  Value.t array ->
  bool
(** Like {!compile} but with filter semantics (only [true] keeps the row);
    AND/OR compile to boolean short-circuits. *)

(** {2 Partition-selection analysis} *)

val find_pred_on_key : Colref.t -> t -> t option
(** The paper's [FindPredOnKey]: the conjunction of all conjuncts referencing
    the key — which may also reference other relations (e.g. the join
    predicate [R.A = T.pk]); that is what enables dynamic elimination. *)

val find_preds_on_keys : Colref.t list -> t -> t option list option
(** Multi-level variant (paper §2.4): one optional predicate per key; [None]
    when no level has one. *)

val restriction : Colref.t -> t -> Interval.Set.t option
(** Values of the key for which the predicate can possibly hold; [None] =
    no information.  Soundness contract: any tuple satisfying the predicate
    has its key inside the returned set. *)

(** {2 Printing and sizing} *)

val cmp_to_string : cmp_op -> string
val arith_to_string : arith_op -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val serialized_size : t -> int
(** Bytes contributed to a serialized plan (paper §4.4). *)
