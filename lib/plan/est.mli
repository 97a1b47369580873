(** Plan-time cardinality estimates, stamped per physical node in the
    pre-order numbering shared with the executor and [EXPLAIN ANALYZE]
    (root = 0; a node's first child is its index + 1).  Orca's come from
    its memo's row-count rule. *)

type t = float array
(** One estimate per pre-order node index; negative = unknown. *)

val none : t
(** No estimates (legacy-Planner and hand-built plans). *)

val of_plan : estimate:(Plan.t -> float) -> Plan.t -> t
(** Stamp every node: [estimate] receives the subtree rooted at each node,
    pre-order.  An estimator exception (or NaN) marks that node unknown
    instead of aborting. *)

val find : t -> int -> float option
(** The estimate for node [id]; [None] when unknown or out of range. *)

val error_factor : est:float -> actual:int -> float
(** Symmetric q-error: [max (est/act, act/est)], both clamped to >= 1 row.
    Always >= 1.0; 1.0 is a perfect estimate. *)
