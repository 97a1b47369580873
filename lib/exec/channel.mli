(** The shared-memory channel between a PartitionSelector (producer) and its
    DynamicScan (consumer) — paper §2.2.  Keyed by
    [(segment, part_scan_id)]: the optimizer guarantees both ends share a
    process on each segment.  {!propagate} is the runtime realization of the
    [partition_propagation] builtin of paper Table 1.

    A slot is one {!Mpp_catalog.Bitset} over the root's leaf positions;
    beside it the channel keeps the set the scan consumed.

    Domain-safe by per-segment sharding: during segment-parallel execution
    exactly one domain works on segment [s], and it is the only toucher of
    shard [s] — no locks on the hot path. *)

open Mpp_catalog

type t

val create : nsegments:int -> t
val nsegments : t -> int

val propagate : t -> segment:int -> part_scan_id:int -> Bitset.t -> unit
(** Push a set of selected leaf positions: the slot becomes its union with
    the set, which is never aliased. *)

val consume :
  ?allowed:Bitset.t -> t -> segment:int -> part_scan_id:int -> Bitset.t option
(** The leaf positions the scan reads on this segment, recorded as
    consumed: those pushed so far, less any outside [allowed] (the min-max
    survivors); [None] before the first push.  Read-only. *)

val mem : t -> segment:int -> part_scan_id:int -> int -> bool
(** Whether this leaf position was pushed. *)

val counts : t -> part_scan_id:int -> int * int
(** Distinct leaves pushed and consumed for this scan id, over all
    segments. *)

val publish_filter : t -> segment:int -> rf_id:int -> Bloom.t -> unit
(** Publish a segment's runtime join filter — the filter sibling of
    {!propagate}, with the same dedup contract: re-publishing the same
    filter is a no-op; a distinct contribution is unioned in. *)

val merged_filter : t -> rf_id:int -> Bloom.t option
(** Cross-segment merge of every filter published on [rf_id]; [None] until
    one exists.  Memoized; call on the coordinating domain only, after the
    builders' parallel section completed. *)

val reset : t -> unit

(** {1 Occupancy accounting}

    Per-segment counters under the same sharding discipline as the slots
    (segment [s]'s domain is the only writer of its counters; reads happen
    on the coordinating domain between parallel sections), computed from
    set cardinalities.  [offered - admitted] is the dedup hit count —
    repeated selector pushes the channel absorbed. *)

type seg_stats = {
  offered : int;
      (** leaves pushed, duplicates included; a streaming selector pushes
          once per segment, the union of its rows' leaves, so its repeats
          are absorbed before they are offered *)
  admitted : int;  (** leaves new to their slot: slots only grow *)
  filters_published : int;  (** runtime-filter publications *)
  occupancy : int;  (** distinct leaves currently held, over all slots *)
}

val seg_stats : t -> segment:int -> seg_stats

val stats_to_json : t -> Mpp_obs.Json.t
(** One object per segment: [{"segment", "oids_offered", "oids_admitted",
    "dedup_hits", "filters_published", "occupancy"}]. *)
