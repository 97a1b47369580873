(** The built-in partition-selection functions of paper §3.2, Table 1.

    These are the runtime face of the catalog: query plans invoke them (see
    the expansions in paper Figure 15) to enumerate child partitions, to map
    a key value to its partition, and to read partition range constraints.
    The fourth builtin, [partition_propagation], is the side-effecting push
    of a partition into a DynamicScan's channel and lives in the executor
    ({!Mpp_exec.Channel.propagate}); its signature is documented here for
    completeness. *)

open Mpp_expr

let partitioning_of cat root_oid =
  match (Catalog.find_oid cat root_oid).Table.partitioning with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "builtin: oid %d is not a partitioned table" root_oid)

(** [partition_expansion cat root_oid] — set of all leaf partition OIDs of
    the given root. *)
let partition_expansion cat root_oid : Partition.oid list =
  Partition.leaf_oids (partitioning_of cat root_oid)

(** [partition_selection cat root_oid values] — OID of the leaf partition
    containing the given partitioning-key value(s) (one per level), or
    [None] for the invalid partition ⊥. *)
let partition_selection cat root_oid (values : Value.t array) :
    Partition.oid option =
  let p = partitioning_of cat root_oid in
  Option.map
    (fun (lf : Partition.leaf) -> lf.leaf_oid)
    (Partition.route p values)

type constraint_row = {
  part_oid : Partition.oid;
  min : Value.t option;  (** [None] = unbounded below *)
  min_incl : bool;
  max : Value.t option;  (** [None] = unbounded above *)
  max_incl : bool;
  is_default : bool;
}

(** [partition_constraints cat root_oid] — one row per leaf with its
    level-0 range constraint, in the (oid, min, minincl, max, maxincl) shape
    of Table 1.  Only meaningful for single-arm range constraints; a
    multi-arm constraint reports its overall hull. *)
let partition_constraints cat root_oid : constraint_row list =
  let p = partitioning_of cat root_oid in
  Array.to_list p.Partition.leaves
  |> List.map (fun (lf : Partition.leaf) ->
         match lf.Partition.bounds.(0) with
         | Partition.Default ->
             {
               part_oid = lf.leaf_oid;
               min = None;
               min_incl = false;
               max = None;
               max_incl = false;
               is_default = true;
             }
         | Partition.Cset s ->
             let intervals = Interval.Set.to_list s in
             let lo =
               match intervals with
               | { Interval.lo; _ } :: _ -> lo
               | [] -> Interval.Neg_inf
             in
             let hi =
               match List.rev intervals with
               | { Interval.hi; _ } :: _ -> hi
               | [] -> Interval.Pos_inf
             in
             let dec = function
               | Interval.Neg_inf | Interval.Pos_inf -> (None, false)
               | Interval.B (v, incl) -> (Some v, incl)
             in
             let min, min_incl = dec lo and max, max_incl = dec hi in
             {
               part_oid = lf.leaf_oid;
               min;
               min_incl;
               max;
               max_incl;
               is_default = false;
             })

(** Per-level restriction-driven selection — the engine behind both static
    and dynamic partition elimination.  [restrictions] holds one optional
    interval set per partitioning level. *)
let partition_select_restricted cat root_oid
    (restrictions : Interval.Set.t option array) : Partition.oid list =
  Partition.select_oids (partitioning_of cat root_oid) restrictions
