(** The shared-memory channel between a PartitionSelector (producer) and its
    DynamicScan (consumer) — paper §2.2.

    Channels are keyed by [(segment, part_scan_id)]: selector and scan run in
    the same process on each segment (the optimizer guarantees no Motion
    separates them), so each segment has a private channel per scan id.
    {!propagate} is the runtime realization of the [partition_propagation]
    builtin of paper Table 1.  A slot is one bitset over the root's leaf
    positions; beside it the channel keeps the set the scan consumed.

    Domain safety by sharding, not locking: the per-segment state lives in a
    per-segment array slot, and during segment-parallel execution segment
    [s]'s work runs on exactly one domain, which is the only toucher of
    shard [s].  Cross-segment reads (EXPLAIN ANALYZE's partition counts)
    happen on the coordinating domain between operators, never
    concurrently with a parallel section. *)

module Bitset = Mpp_catalog.Bitset

(* Per-segment occupancy counters (profiler accounting): plain integer
   fields under the same sharding discipline as the slots — segment [s]'s
   domain is the only writer of [counters.(s)], so no locks.  "Offered"
   counts every leaf a selector pushed (including duplicates).  Slots only
   grow until {!reset}, so the leaves admitted are the ones held. *)
type seg_counters = {
  mutable offered : int;
  mutable filters_published : int;
}

type t = {
  shards : (int, Bitset.t) Hashtbl.t array;
      (** [shards.(segment)] maps part_scan_id → the pushed leaf positions *)
  consumed : (int, Bitset.t) Hashtbl.t array;  (** the leaves the scan read *)
  filters : (int, Bloom.t) Hashtbl.t array;
      (** [filters.(segment)] maps rf_id → the runtime join filter that
          segment built; same sharding discipline as [shards] *)
  merged : (int, Bloom.t option) Hashtbl.t;
      (** coordinator-side memo of cross-segment merges, keyed by rf_id;
          touched only on the coordinating domain, between parallel
          sections *)
  counters : seg_counters array;  (** occupancy accounting per segment *)
}

let create ~nsegments =
  if nsegments <= 0 then invalid_arg "Channel.create: nsegments must be > 0";
  {
    shards = Array.init nsegments (fun _ -> Hashtbl.create 8);
    consumed = Array.init nsegments (fun _ -> Hashtbl.create 8);
    filters = Array.init nsegments (fun _ -> Hashtbl.create 4);
    merged = Hashtbl.create 4;
    counters =
      Array.init nsegments (fun _ -> { offered = 0; filters_published = 0 });
  }

let nsegments t = Array.length t.shards

(* [shard.(id) ∪= bits], copying [bits] into a new slot. *)
let union_slot shard id bits =
  match Hashtbl.find_opt shard id with
  | Some slot -> Bitset.union_into ~into:slot bits
  | None -> Hashtbl.replace shard id (Bitset.copy bits)

(** Push selected leaf positions to the DynamicScan with the given id on
    the given segment: one word-wise union, so a leaf pushed twice (by two
    selectors, or two rows of a re-analyzing selector) is held once. *)
let propagate t ~segment ~part_scan_id bits =
  let c = t.counters.(segment) in
  c.offered <- c.offered + Bitset.cardinal bits;
  union_slot t.shards.(segment) part_scan_id bits

let consume ?allowed t ~segment ~part_scan_id =
  match Hashtbl.find_opt t.shards.(segment) part_scan_id with
  | None -> None
  | Some slot ->
      let parts =
        match allowed with
        | None -> slot
        | Some a ->
            let p = Bitset.copy slot in
            Bitset.inter_into ~into:p a;
            p
      in
      union_slot t.consumed.(segment) part_scan_id parts;
      Some parts

(** Membership test — the guarded Table_scan's per-segment check. *)
let mem t ~segment ~part_scan_id pos =
  match Hashtbl.find_opt t.shards.(segment) part_scan_id with
  | Some slot -> Bitset.mem slot pos
  | None -> false

(* Distinct leaves of [part_scan_id] over every segment's table, unioned
   in a one-slot scratch table. *)
let distinct shards ~part_scan_id =
  let u = Hashtbl.create 1 in
  Array.iter
    (fun s -> Option.iter (union_slot u 0) (Hashtbl.find_opt s part_scan_id))
    shards;
  Hashtbl.fold (fun _ s _ -> Bitset.cardinal s) u 0

let counts t ~part_scan_id =
  (distinct t.shards ~part_scan_id, distinct t.consumed ~part_scan_id)

(** Publish a segment's runtime join filter on channel [rf_id] — the
    filter sibling of {!propagate}, with the same dedup contract:
    publishing the {e same} filter again is a no-op, and a genuinely new
    contribution (another operator instance on this segment) is unioned
    in, so repeated pushes can neither double-count entries nor lose
    bits. *)
let publish_filter t ~segment ~rf_id bloom =
  let shard = t.filters.(segment) in
  let c = t.counters.(segment) in
  c.filters_published <- c.filters_published + 1;
  match Hashtbl.find_opt shard rf_id with
  | None -> Hashtbl.replace shard rf_id bloom
  | Some existing when existing == bloom -> ()
  | Some existing -> Bloom.union_into ~into:existing bloom

(** The cross-segment merge of every filter published on [rf_id]; [None]
    until at least one segment has published.  Memoized per rf_id — must
    be called on the coordinating domain after the builders' parallel
    section has completed (the executor resolves it between operators,
    mirroring how EXPLAIN ANALYZE reads the partition slots). *)
let merged_filter t ~rf_id =
  match Hashtbl.find_opt t.merged rf_id with
  | Some m -> m
  | None ->
      let parts =
        Array.fold_left
          (fun acc shard ->
            match Hashtbl.find_opt shard rf_id with
            | Some b -> b :: acc
            | None -> acc)
          [] t.filters
      in
      let m = Bloom.merge parts in
      Hashtbl.replace t.merged rf_id m;
      m

let reset t =
  Array.iter Hashtbl.reset t.shards;
  Array.iter Hashtbl.reset t.consumed;
  Array.iter Hashtbl.reset t.filters;
  Hashtbl.reset t.merged;
  Array.iter
    (fun c ->
      c.offered <- 0;
      c.filters_published <- 0)
    t.counters

(* ------------------------------------------------------------------ *)
(* Occupancy accounting                                                *)
(* ------------------------------------------------------------------ *)

type seg_stats = {
  offered : int;  (** leaves pushed, duplicates included *)
  admitted : int;  (** leaves new to their slot: slots only grow *)
  filters_published : int;  (** runtime-filter publications *)
  occupancy : int;  (** distinct leaves currently held, over all slots *)
}

(** This segment's occupancy counters.  Reads happen on the coordinating
    domain between parallel sections (the same discipline as
    {!merged_filter}), so the per-segment fields are quiescent. *)
let seg_stats t ~segment =
  let c = t.counters.(segment) in
  let occupancy =
    Hashtbl.fold (fun _ s acc -> acc + Bitset.cardinal s) t.shards.(segment) 0
  in
  {
    offered = c.offered;
    admitted = occupancy;
    filters_published = c.filters_published;
    occupancy;
  }

let stats_to_json t =
  let open Mpp_obs.Json in
  List
    (List.init (nsegments t) (fun segment ->
         let s = seg_stats t ~segment in
         Obj
           [
             ("segment", Int segment);
             ("oids_offered", Int s.offered);
             ("oids_admitted", Int s.admitted);
             ("dedup_hits", Int (s.offered - s.admitted));
             ("filters_published", Int s.filters_published);
             ("occupancy", Int s.occupancy);
           ]))
