(** Table- and column-level statistics, collected by sampling the storage
    layer (the ANALYZE of the simulated system).

    The optimizer reads these through {!Stats_source}, which supports
    injecting deliberate misestimates — the mechanism we use to reproduce the
    paper's Table-3 outliers, where "cardinality estimation errors" lead Orca
    to sub-optimal plans (paper §4.3). *)

open Mpp_expr

type column_stats = {
  histogram : Histogram.t;
  ndv : int;
  null_frac : float;
}

type table_stats = {
  rowcount : int;
  avg_width : int;  (** average tuple width in bytes *)
  columns : column_stats array;
}

let tuple_width (tuple : Value.t array) =
  Array.fold_left (fun acc v -> acc + Value.serialized_size v) 0 tuple

(** Collect statistics for [table] by a full pass over storage (our tables
    are small; a real system would sample). *)
let analyze storage (table : Mpp_catalog.Table.t) : table_stats =
  let oids =
    match table.partitioning with
    | None -> [ table.oid ]
    | Some p -> Mpp_catalog.Partition.leaf_oids p
  in
  let rows = ref [] in
  let replicated =
    match table.distribution with
    | Mpp_catalog.Distribution.Replicated -> true
    | _ -> false
  in
  let nsegs = Mpp_storage.Storage.nsegments storage in
  let last_seg = if replicated then 0 else nsegs - 1 in
  List.iter
    (fun oid ->
      for seg = 0 to last_seg do
        Mpp_storage.Vec.iter
          (fun t -> rows := t :: !rows)
          (Mpp_storage.Storage.scan_vec storage ~segment:seg ~oid)
      done)
    oids;
  let all = !rows in
  let rowcount = List.length all in
  let ncols = Mpp_catalog.Table.ncols table in
  let columns =
    Array.init ncols (fun i ->
        let values = List.map (fun t -> t.(i)) all in
        let histogram = Histogram.build values in
        let nulls = List.length (List.filter Value.is_null values) in
        {
          histogram;
          ndv = max 1 (Histogram.ndv histogram);
          null_frac =
            (if rowcount = 0 then 0.0
             else float_of_int nulls /. float_of_int rowcount);
        })
  in
  let avg_width =
    if rowcount = 0 then 1
    else
      List.fold_left (fun acc t -> acc + tuple_width t) 0 all / rowcount
  in
  { rowcount; avg_width; columns }

(** Crude statistics when nothing has been analyzed: default row count and
    uniform columns. *)
let defaults (table : Mpp_catalog.Table.t) : table_stats =
  {
    rowcount = 1000;
    avg_width = 64;
    columns =
      Array.make (Mpp_catalog.Table.ncols table)
        { histogram = Histogram.empty; ndv = 100; null_frac = 0.0 };
  }
