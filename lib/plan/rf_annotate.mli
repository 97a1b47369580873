(** Runtime-join-filter annotation: the shared post-placement rewrite that
    inserts [Runtime_filter_build] / [Runtime_filter] pairs around eligible
    hash joins — see [rf_annotate.ml] for the placement rules and the
    streaming-DPE redundancy skip.  Both operators are semantic no-ops, so
    the rewrite never changes query results; the executor's
    [runtime_filters] knob decides whether the filters actually run. *)

open Mpp_expr

val annotate :
  catalog:Mpp_catalog.Catalog.t ->
  decide:
    (build:Plan.t ->
    probe:Plan.t ->
    build_keys:Colref.t list ->
    probe_keys:Colref.t list ->
    int option) ->
  Plan.t ->
  Plan.t
(** [annotate ~catalog ~decide plan] rewrites every eligible [Hash_join]
    (Inner/Semi/Left_outer equi-join with column keys on both sides) whose
    [decide] callback returns [Some rows_est] — the build-side cardinality
    estimate that sizes the Bloom filter deterministically.  Returning
    [None] skips the join (the optimizer's cost veto).  Joins whose filter
    would only re-derive streaming partition selection are skipped
    regardless. *)
