(** Execution metrics: the deterministic work counters behind the paper's
    evaluation figures (partitions scanned per table for Figure 16; tuple
    and Motion volumes backing the runtimes of Figure 17 and Table 2). *)

module Bitset = Mpp_catalog.Bitset

type t = {
  mutable tuples_scanned : int;  (** rows read from heaps, summed over segments *)
  mutable tuples_moved : int;  (** rows crossing a Motion *)
  mutable partition_opens : int;  (** heap opens, summed over segments *)
  parts_scanned : (int, Bitset.t) Hashtbl.t;
      (** root table OID → leaf positions scanned *)
  mutable rows_updated : int;
  mutable rows_deleted : int;
  mutable filter_built : int;
      (** runtime join filters built (one per builder per segment with a
          non-empty build side) *)
  mutable rows_filtered_scan : int;
      (** probe rows dropped by a runtime filter fused into a scan *)
  mutable rows_filtered_motion : int;
      (** probe rows dropped by a runtime filter sitting below a Motion
          send *)
  mutable motion_rows_saved : int;
      (** Motion sends avoided thanks to pre-Motion filtering: for a
          Redistribute each dropped row saves one send, for a Broadcast it
          saves [nsegments] *)
}

let create () =
  {
    tuples_scanned = 0;
    tuples_moved = 0;
    partition_opens = 0;
    parts_scanned = Hashtbl.create 16;
    rows_updated = 0;
    rows_deleted = 0;
    filter_built = 0;
    rows_filtered_scan = 0;
    rows_filtered_motion = 0;
    motion_rows_saved = 0;
  }

(* [into.(root) ∪= parts], copying [parts] when [root] is new. *)
let union_parts into root parts =
  match Hashtbl.find_opt into root with
  | Some s -> Bitset.union_into ~into:s parts
  | None -> Hashtbl.replace into root (Bitset.copy parts)

let record_scan t ~root_oid parts ~rows =
  let opened = Bitset.cardinal parts in
  if opened > 0 then begin
    t.tuples_scanned <- t.tuples_scanned + rows;
    t.partition_opens <- t.partition_opens + opened;
    union_parts t.parts_scanned root_oid parts
  end

let record_motion t ~rows = t.tuples_moved <- t.tuples_moved + rows

(** Distinct partitions of table [root_oid] that were actually scanned. *)
let parts_scanned_of t ~root_oid =
  match Hashtbl.find_opt t.parts_scanned root_oid with
  | None -> 0
  | Some s -> Bitset.cardinal s

let total_parts_scanned t =
  Hashtbl.fold (fun _ s acc -> acc + Bitset.cardinal s) t.parts_scanned 0

let pp fmt t =
  Format.fprintf fmt
    "tuples_scanned=%d tuples_moved=%d partition_opens=%d parts_scanned=%d \
     rows_updated=%d rows_deleted=%d filter_built=%d rows_filtered_scan=%d \
     rows_filtered_motion=%d motion_rows_saved=%d"
    t.tuples_scanned t.tuples_moved t.partition_opens (total_parts_scanned t)
    t.rows_updated t.rows_deleted t.filter_built t.rows_filtered_scan
    t.rows_filtered_motion t.motion_rows_saved

(** Fold an array of runs' counters into one fresh record: sums for the
    scalar counters, per-root union of the scanned leaf positions — how the
    executor folds its per-segment shards into the per-query total. *)
let merge_all ts =
  let t = create () in
  Array.iter
    (fun m ->
      t.tuples_scanned <- t.tuples_scanned + m.tuples_scanned;
      t.tuples_moved <- t.tuples_moved + m.tuples_moved;
      t.partition_opens <- t.partition_opens + m.partition_opens;
      t.rows_updated <- t.rows_updated + m.rows_updated;
      t.rows_deleted <- t.rows_deleted + m.rows_deleted;
      t.filter_built <- t.filter_built + m.filter_built;
      t.rows_filtered_scan <- t.rows_filtered_scan + m.rows_filtered_scan;
      t.rows_filtered_motion <- t.rows_filtered_motion + m.rows_filtered_motion;
      t.motion_rows_saved <- t.motion_rows_saved + m.motion_rows_saved;
      Hashtbl.iter (union_parts t.parts_scanned) m.parts_scanned)
    ts;
  t

let merge a b = merge_all [| a; b |]

(** Leaf positions of table [root_oid] actually scanned, ascending. *)
let scanned_leaves t ~root_oid =
  match Hashtbl.find_opt t.parts_scanned root_oid with
  | None -> []
  | Some s -> Bitset.to_list s

(** Root OIDs with at least one partition scanned, ascending. *)
let roots_scanned t =
  Hashtbl.fold (fun root _ acc -> root :: acc) t.parts_scanned []
  |> List.sort Int.compare

let to_json t =
  Mpp_obs.Json.Obj
    [
      ("tuples_scanned", Mpp_obs.Json.Int t.tuples_scanned);
      ("tuples_moved", Mpp_obs.Json.Int t.tuples_moved);
      ("partition_opens", Mpp_obs.Json.Int t.partition_opens);
      ("parts_scanned", Mpp_obs.Json.Int (total_parts_scanned t));
      ("rows_updated", Mpp_obs.Json.Int t.rows_updated);
      ("rows_deleted", Mpp_obs.Json.Int t.rows_deleted);
      ("filter_built", Mpp_obs.Json.Int t.filter_built);
      ("rows_filtered_scan", Mpp_obs.Json.Int t.rows_filtered_scan);
      ("rows_filtered_motion", Mpp_obs.Json.Int t.rows_filtered_motion);
      ("motion_rows_saved", Mpp_obs.Json.Int t.motion_rows_saved);
    ]
