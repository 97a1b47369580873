(** Logical operator trees — the optimizer's input, produced by the SQL
    binder or built directly.  Relation instances carry range-table indices;
    tables are referenced by name and resolved at optimization time. *)

open Mpp_expr
module Plan = Mpp_plan.Plan

type t =
  | Get of { rel : int; table_name : string }
  | Select of { pred : Expr.t; child : t }
  | Join of { kind : Plan.join_kind; pred : Expr.t; left : t; right : t }
  | Aggregate of {
      group_by : Expr.t list;
      aggs : (string * Plan.agg_fun) list;
      child : t;
    }
  | Project of { exprs : (string * Expr.t) list; child : t }
  | Sort of { keys : Expr.t list; child : t }
  | Limit of { rows : int; child : t }
  | Update of {
      rel : int;
      table_name : string;
      set_cols : (string * Expr.t) list;
      child : t;
    }
  | Delete of { rel : int; table_name : string; child : t }
  | Insert of { table_name : string; rows : Expr.t list list }

val get : rel:int -> string -> t
val select : Expr.t -> t -> t
val join : ?kind:Plan.join_kind -> Expr.t -> t -> t -> t

val aggregate :
  ?group_by:Expr.t list -> (string * Plan.agg_fun) list -> t -> t

val children : t -> t list
(** A Join's are [[left; right]]; Get and Insert have none. *)

val with_children : t -> t list -> t
(** Rebuild a node with new children, in {!children}'s order and arity,
    every other field kept; raises [Invalid_argument] on an arity
    mismatch.  With {!children} it is the one structural walk over the
    tree: a rewrite matches the nodes it changes and rebuilds the rest
    through this. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order over the whole tree. *)

val base_tables : t -> (int * string) list
(** All (rel, table_name) base accesses, in tree order. *)

val describe : t -> string
val pp : Format.formatter -> t -> unit
