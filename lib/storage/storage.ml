(** The storage layer of the simulated MPP cluster.

    Tuples live in per-(segment, physical-table) heaps.  For a partitioned
    table the physical tables are its leaf partitions — separate tables with
    their own OIDs, as in the paper's runtime (§3.2) — so "scanning partition
    [p] on segment [s]" is a single heap lookup.  The distribution policy
    decides which segment a tuple lands on; the partitioning function [f_T]
    decides which leaf.

    Tuples that [f_T] maps to the invalid partition ⊥ are rejected at load
    time, mirroring a constraint violation in a real system.

    Every write goes through {!load}, so a heap is a run of rows allocated
    together in scan order over values shared within their batch, and a
    scan of one leaf reads a compact unit.  Heaps are read-only once
    written: a DELETE swaps in a heap of the surviving rows themselves. *)

open Mpp_expr

type tuple = Value.t array

exception No_partition_for_tuple of { table : string; tuple : tuple }

type heap = tuple Vec.t

type t = {
  nsegments : int;
  heaps : (int * int, heap) Hashtbl.t;  (** (segment, physical oid) → rows *)
  mutable row_counter : int;  (** drives round-robin for Random policy *)
}

let create ~nsegments =
  if nsegments <= 0 then invalid_arg "Storage.create: nsegments must be > 0";
  { nsegments; heaps = Hashtbl.create 1024; row_counter = 0 }

let nsegments t = t.nsegments

let heap t ~segment ~oid =
  match Hashtbl.find_opt t.heaps (segment, oid) with
  | Some h -> h
  | None ->
      let h = Vec.create () in
      Hashtbl.replace t.heaps (segment, oid) h;
      h

(** Physical OID the tuple belongs to: a leaf partition for a partitioned
    table, the table itself otherwise. *)
let physical_oid (table : Mpp_catalog.Table.t) (tuple : tuple) =
  match table.partitioning with
  | None -> table.oid
  | Some p ->
      (* Bulk-load routing goes through the selection index: one O(log P)
         binary search (or O(1) hash probe) per level instead of the legacy
         scan of every leaf. *)
      let keys =
        Array.map
          (fun (lv : Mpp_catalog.Partition.level) -> tuple.(lv.key_index))
          p.levels
      in
      (match Mpp_catalog.Partition.Index.route p.index keys with
      | Some lf -> lf.leaf_oid
      | None -> raise (No_partition_for_tuple { table = table.name; tuple }))

(* A value as the batch being written stores it.  Equal [Int], [Date],
   [String] and [Bool] values become the one physical value [shared] holds
   for the batch; keys compare structurally, constructor included, so
   [Int 1], [Float 1.0] and a [Date] on day 1 stay apart.  Each [Float] gets
   a fresh box with the same bits (so -0.0 and NaN payloads survive),
   allocated beside the row that holds it. *)
let share_value shared (v : Value.t) : Value.t =
  match v with
  | Null -> v
  | Float f -> Float (Int64.float_of_bits (Int64.bits_of_float f))
  | Bool _ | Int _ | Date _ | String _ -> (
      match Hashtbl.find_opt shared v with
      | Some s -> s
      | None ->
          Hashtbl.add shared v v;
          v)

(** The one write path.  Every tuple is first routed to its (segment, leaf)
    heap — distribution policy, [f_T] and the round-robin row counter,
    exactly as one-at-a-time inserts in batch order would — so an arity
    error or a tuple on ⊥ raises before anything is written.  Then each
    heap's share is appended heap by heap as fresh rows: a heap's new rows
    are allocated one after another, in scan order, over values shared
    across the batch.  A replicated table's rows are copied once and the
    copies appended to every segment's heap. *)
let load t (table : Mpp_catalog.Table.t) (tuples : tuple list) =
  let ncols = Mpp_catalog.Table.ncols table in
  (* (segment, oid) → rows, the segment [None] for every segment *)
  let routed = Hashtbl.create 16 in
  let order = ref [] in
  let rowno =
    List.fold_left
      (fun rowno tuple ->
        if Array.length tuple <> ncols then
          invalid_arg
            (Printf.sprintf "Storage.load: arity mismatch for %s" table.name);
        let key =
          ( Mpp_catalog.Distribution.segment_of ~nsegments:t.nsegments
              table.distribution tuple ~rowno,
            physical_oid table tuple )
        in
        (match Hashtbl.find_opt routed key with
        | Some rows -> Vec.push rows tuple
        | None ->
            let rows = Vec.create () in
            Vec.push rows tuple;
            Hashtbl.add routed key rows;
            order := key :: !order);
        rowno + 1)
      t.row_counter tuples
  in
  t.row_counter <- rowno;
  (* lives for this call only, so a stream of fresh sentinel values
     cannot grow it *)
  let shared = Hashtbl.create 16 in
  List.iter
    (fun ((segment, oid) as key) ->
      let rows = Vec.create () in
      Vec.iter
        (fun tuple -> Vec.push rows (Array.map (share_value shared) tuple))
        (Hashtbl.find routed key);
      match segment with
      | Some segment -> Vec.append ~dst:(heap t ~segment ~oid) rows
      | None ->
          for segment = 0 to t.nsegments - 1 do
            Vec.append ~dst:(heap t ~segment ~oid) rows
          done)
    (List.rev !order)

(** A one-row {!load}. *)
let insert t table tuple = load t table [ tuple ]

(** The live heap vector itself, zero-copy — the executor's hot path.  The
    caller must treat it as read-only: executor operators never mutate input
    batches, and DML swaps whole heaps via {!replace_heap} rather than
    editing them in place, so an aliased scan result stays valid. *)
let scan_vec t ~segment ~oid : tuple Vec.t =
  match Hashtbl.find_opt t.heaps (segment, oid) with
  | Some h -> h
  | None -> Vec.create ()

let count_segment t ~segment ~oid =
  match Hashtbl.find_opt t.heaps (segment, oid) with
  | Some h -> Vec.length h
  | None -> 0

(** Total rows of physical table [oid] across all segments.  For replicated
    tables this counts each copy. *)
let count t ~oid =
  let c = ref 0 in
  for seg = 0 to t.nsegments - 1 do
    c := !c + count_segment t ~segment:seg ~oid
  done;
  !c

(** Total rows of [table] across segments and (for partitioned tables) all
    leaf partitions. *)
let count_table t (table : Mpp_catalog.Table.t) =
  match table.partitioning with
  | None -> count t ~oid:table.oid
  | Some p ->
      List.fold_left
        (fun acc oid -> acc + count t ~oid)
        0
        (Mpp_catalog.Partition.leaf_oids p)

(** Swap in a new heap for [oid] on [segment] — DELETE's primitive.  The
    rows are stored as given: a DELETE passes the surviving rows
    themselves, so they stay where they are. *)
let replace_heap t ~segment ~oid tuples =
  Hashtbl.replace t.heaps (segment, oid) (Vec.of_list tuples)
