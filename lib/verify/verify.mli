(** Multi-pass static analysis of physical plans.

    The one home of the paper's §3.1 / Figure-12 plan invariants: both
    optimizers run every plan they emit through [check] before handing it
    to the executor, the [mppsim check] front end pretty-prints the
    diagnostics, and the mutation-kill harness asserts that each
    systematic plan corruption is rejected with the right code.

    Six passes, each emitting structured {!Diag.t} diagnostics:

    - {b structure} — the paper's §3.1 invariants (matched
      PartitionSelector/DynamicScan pairs, no Motion between a communicating
      pair, producer-before-consumer order in Sequences {e and} across join
      children, which execute left to right), plus selector arity against
      the partitioning levels, duplicate producers, and selector/scan
      root-OID agreement across nested Sequence boundaries;
    - {b schema} — re-derives every operator's output tuple layout
      (relation, width, per-column datatype) bottom-up exactly as the
      executor does, and resolves every expression against it: out-of-range
      column offsets, out-of-scope relations, class-incompatible
      comparisons, non-boolean filter predicates, non-numeric aggregate
      arguments, Append children with mismatched layouts, and DML targets
      missing from the child output are all caught at plan time instead of
      at [Expr.compile] time (or worse, silently at run time);
    - {b distribution} — infers where each operator's rows live (singleton,
      replicated, hashed on columns, or unknown-distributed) and checks
      that every join's inputs are co-located, broadcast or gathered; that
      [Gather_one] only reads replicated data; that Sort/Limit/final
      aggregation run over gathered input; that no Motion sits directly on
      another Motion; and that the plan root is gathered;
    - {b accounting} — cross-checks each DynamicScan's [ds_nparts] against
      {!Mpp_catalog.Partition.select_static} over its selector's per-level
      predicates, verifies that guarded leaf scans belong to their
      selector's table, and that an Append expansion
      ({!Mpp_plan.Expansion.of_append}) scans no leaf twice and still
      covers every leaf that survives static selection by its filter;
    - {b filters} — runtime-join-filter placement legality: every
      [Runtime_filter] pairs with exactly one [Runtime_filter_build] of the
      same [rf_id], builder on the build (left) side and consumer(s) on the
      probe (right) side of the same join, key arities agree, a pre-Motion
      consumer sits directly below a Redistribute/Broadcast send, and no
      filter crosses a Gather above its join;
    - {b pruning} — partition-pruning soundness: for every DynamicScan and
      Append expansion, the partitions {e permitted} by the
      site's reachable predicates (its own filter, enclosing filters, and
      join conjuncts propagated across equi-join equivalence classes — see
      {!Mpp_analysis.Analysis.pruning_sites}) are re-derived independently
      of the optimizer; a statically pruned set that excludes a permitted
      partition is an [Error] (["pruning/over-pruned"] — silently missing
      rows).  Dead Append branches and contradictory filters are plan
      smells that {!Mpp_analysis.Analysis.Lint} reports. *)

module Plan = Mpp_plan.Plan

val check : catalog:Mpp_catalog.Catalog.t -> Plan.t -> Diag.t list
(** Run all six passes; diagnostics in pass order. *)

val check_pass :
  catalog:Mpp_catalog.Catalog.t -> Diag.pass -> Plan.t -> Diag.t list

val ok : catalog:Mpp_catalog.Catalog.t -> Plan.t -> bool
(** No [Error]-severity diagnostics. *)

exception Rejected of string * Diag.t list
(** [(what, errors)] raised by {!assert_valid}. *)

val assert_valid :
  catalog:Mpp_catalog.Catalog.t -> what:string -> Plan.t -> unit
(** Raise {!Rejected} when any pass reports an error. *)

val stamp_nparts : catalog:Mpp_catalog.Catalog.t -> Plan.t -> Plan.t
(** Set [ds_nparts] on every DynamicScan from its matching selector's
    statically-analyzable predicates (total partition count when the scan
    has no selector or the selector is malformed).  The optimizer runs this
    after selector placement so the accounting pass can later re-derive and
    cross-check the same number. *)

val pp_report : Format.formatter -> Diag.t list -> unit
(** Human-readable multi-line report; prints ["plan verifies clean"] for
    []. *)
