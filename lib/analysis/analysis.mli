(** Abstract interpretation of scalar expressions and plans.

    The partition-selection machinery (paper §3.2) reduces predicates on the
    partitioning key to interval normal form; this module generalizes that
    reduction into a proper abstract domain over {e every} column — an
    interval set for the possible values plus a nullability bit — and
    derives per-column bounds bottom-up through every plan operator.  On top
    of the domain sits a decision layer ([contradicts] / [always_true] /
    [implies]) and a filter-semantics-preserving [simplify], used by

    - both optimizers ({!simplify_plan}): always-false filters collapse to
      the single-false-leaf empty shape, always-true conjuncts are dropped,
      and partition-key restrictions implied across equi-join equivalence
      classes strengthen partition selectors and Append expansions;
    - the verifier's sixth pass ({!pruning_sites}): the partitions a scan's
      reachable predicates {e permit} are re-derived independently so that
      over-pruning — a selected set that excludes a permitted partition —
      is a structural error, not a silent wrong answer;
    - the executor: runtime min-max filter summaries are cross-checked
      against the static bounds of the build subtree
      ({!minmax_violations}).

    Soundness convention: every abstract operation over-approximates.  A
    column's abstract value contains every value the column can actually
    take (assuming base tables store no NULLs — the storage layer and both
    workload generators never materialize one); [can_t]/[can_f]/[can_n]
    may be true spuriously but never false spuriously.  Decisions only act
    on the {e negations} ([not can_f] …), so a precision loss can only
    suppress a simplification, never enable a wrong one. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Catalog = Mpp_catalog.Catalog

(** {2 The abstract domain} *)

type aval = {
  range : Interval.Set.t;  (** every value the expression can take *)
  nullable : bool;  (** whether it can evaluate to NULL *)
}

type abool = {
  can_t : bool;  (** may evaluate to [true] *)
  can_f : bool;  (** may evaluate to [false] *)
  can_n : bool;  (** may evaluate to NULL (or a non-boolean) *)
}

type env
(** Per-column abstract values, keyed by (rel, column index); columns not
    present are unconstrained.  [Bottom] means "no tuple can reach here". *)

val env_top : env
val is_bottom : env -> bool

val find : env -> Colref.t -> aval
(** Top for unconstrained columns; the empty non-nullable value under a
    bottom environment. *)

val set : env -> Colref.t -> aval -> env
(** Collapses to bottom when the value is unsatisfiable. *)

val env_join : env -> env -> env
(** Least upper bound: the environment of a row coming from {e either}
    input (an Append of both). *)

(** {2 Abstract evaluation} *)

val aeval : env -> Expr.t -> aval
(** Over-approximate the value of a scalar expression. *)

val aeval_pred : env -> Expr.t -> abool
(** Over-approximate the three-valued outcome of a predicate. *)

val restrict : env -> Expr.t -> env
(** Assume the predicate evaluated to [true] (filter semantics): meet each
    restricted column with its derived interval set, clear nullability for
    columns a true comparison forces non-null, bottom when the predicate
    cannot hold. *)

(** {2 Decisions} *)

val contradicts : env -> Expr.t -> bool
(** No row satisfying [env] passes the filter. *)

val always_true : env -> Expr.t -> bool
(** Every row satisfying [env] passes the filter (the outcome is [true],
    never [false] or NULL). *)

val implies : env -> Expr.t -> Expr.t -> bool
(** [implies env p q]: every row of [env] passing [p] also passes [q]. *)

val simplify :
  ?report:([ `Redundant | `Contradiction ] -> Expr.t -> unit) ->
  env ->
  Expr.t ->
  Expr.t
(** Filter-semantics-preserving rewrite: for every row satisfying [env] the
    simplified predicate keeps the row iff the original did.  Always-true
    conjuncts are dropped, contradictory conjuncts collapse the conjunction
    to [false], impossible disjuncts are removed.  [report] is invoked once
    per dropped conjunct/disjunct (the linter's hook).  Physically returns
    the input when nothing changed. *)

val expr_of_set : Colref.t -> Interval.Set.t -> Expr.t
(** Synthesize a predicate whose {!Expr.restriction} on the column is
    exactly the given set ([true] for the full set, [false] for the empty
    one). *)

(** {2 Plan-level derivation} *)

val scan_env : catalog:Catalog.t -> rel:int -> int -> env
(** Base environment of a table scan by root {e or} leaf OID: every stored
    column is non-nullable, and each partitioning-key column is bounded by
    the union of the leaf constraint sets (the whole table's, for a root
    OID; the one leaf's, for a leaf OID; unconstrained once a default arm
    is involved). *)

val derive : catalog:Catalog.t -> Plan.t -> env
(** Bottom-up per-column bounds of the rows an operator can emit. *)

(** {2 Implication across equivalence classes} *)

val equiv_class : conjs:Expr.t list -> Colref.t -> Colref.t list
(** The equi-join equivalence class of a column: the closure of [k] under
    the [a = b] column-to-column conjuncts of [conjs] (includes [k]
    itself).  This is the connectivity relation {!implied_restrictions}
    transports restrictions along; the serving layer's
    parameter-sensitivity analysis uses it to decide whether a bind
    parameter's predicate can reach a partitioning key. *)

val implied_restrictions :
  keys:Colref.t list -> Expr.t list -> Interval.Set.t option array
(** For each key, the interval restriction implied by the conjunct list:
    the intersection of {!Expr.restriction} over the key's equi-join
    equivalence class (union-find over [a = b] column conjuncts).  [None]
    when nothing is derivable for a level. *)

(** {2 Pruning sites (the verifier's sixth pass)} *)

type site_kind =
  | Site_scan of int  (** a DynamicScan, by [part_scan_id] *)
  | Site_append of Mpp_plan.Expansion.t
      (** an Append expansion with at least one live leaf, as
          {!Mpp_plan.Expansion.of_append} reads it *)

type pruning_site = {
  site_path : int list;  (** child-index path from the plan root *)
  site_kind : site_kind;
  site_rel : int;
  site_root : int;  (** root OID of the partitioned table *)
  site_keys : Colref.t list;  (** the partitioning keys under [site_rel] *)
  site_permitted : Interval.Set.t option array;
      (** per-level restriction derived from every predicate reachable from
          the site — its own filter, enclosing filters, and join conjuncts
          harvested across equi-join equivalence classes *)
}

val pruning_sites : catalog:Catalog.t -> Plan.t -> pruning_site list
(** Every DynamicScan and Append expansion, with the partitions its
    reachable predicates permit.  A sound pruner must keep a superset of
    each site's permitted partitions.  The strengthening walk of
    {!simplify_plan} finds its sites with the same function and pushes
    context to children with the same rules, so a plan it strengthened
    always satisfies the check.  The statically empty expansion (every
    child a literal-false leaf scan) yields no site. *)

(** {2 Plan simplification and strengthening} *)

val simplify_plan : catalog:Catalog.t -> ?strengthen:bool -> Plan.t -> Plan.t
(** Two phases.  Phase 1 rewrites every Filter predicate and scan filter
    with {!simplify} (Filter preds against the derived child environment,
    scan filters against the scan's base environment; an Append
    expansion's shared filter is rewritten once and stays physically
    shared).  Phase 2 (when [strengthen], default true) walks the
    simplified plan collecting reachable predicates and equivalence
    classes, then (a) conjoins implied partition-key restrictions onto
    partition-selector predicates that they tighten, and (b) re-runs
    static exclusion on unguarded Append expansions with the
    strengthened shared filter — dropping statically-impossible children,
    collapsing to the single-false-leaf empty shape when none survive.
    Guarded (runtime-eliminated) Appends are never restructured.  Row sets
    are preserved exactly. *)

(** {2 Runtime filter cross-check} *)

val minmax_violations :
  catalog:Catalog.t ->
  child:Plan.t ->
  keys:Colref.t list ->
  minmax:(int -> (Value.t * Value.t) option) ->
  string list
(** Check a built runtime filter's per-key [lo, hi] summary (by key
    position; [None] = no non-null key seen) against the statically derived
    bounds of the build subtree.  Any endpoint outside the static range is
    a filter-construction bug: described violations are returned. *)

(** {2 Linting} *)

module Lint : sig
  type finding = { code : string; path : string; detail : string }

  val pp_finding : Format.formatter -> finding -> unit

  val plan : catalog:Catalog.t -> Plan.t -> finding list
  (** Run the engine over an (unsimplified) plan as a linter: redundant
      conjuncts ([lint/redundant-conjunct]), contradictory conjuncts and
      filters ([lint/contradictory-conjunct], [lint/contradiction]), and
      statically dead Append branches ([lint/dead-branch]). *)
end
