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

(** Collect statistics for [table] by a full pass over storage (our tables
    are small; a real system would sample).  The row count comes from the
    heap lengths; one pass then fills an array per column with its
    non-NULL values, each column's histogram sorts its array, and the
    arrays are dropped.  Heaps are read last heap first and last row
    first: of values that compare equal but differ ([Int 1] and
    [Float 1.0], [-0.0] and [0.0]) the one scanned last sorts first and
    bounds its bucket, which keeps every histogram the same as the list
    algorithm's that [test_stats] holds as its oracle. *)
let analyze storage (table : Mpp_catalog.Table.t) : table_stats =
  let module Storage = Mpp_storage.Storage in
  let oids =
    match table.partitioning with
    | None -> [ table.oid ]
    | Some p -> Mpp_catalog.Partition.leaf_oids p
  in
  let segments =
    match table.distribution with
    | Mpp_catalog.Distribution.Replicated -> [ 0 ]
    | _ -> List.init (Storage.nsegments storage) Fun.id
  in
  let heaps =
    List.rev
      (List.concat_map
         (fun oid -> List.map (fun segment -> (segment, oid)) segments)
         oids)
  in
  let rowcount =
    List.fold_left
      (fun acc (segment, oid) ->
        acc + Storage.count_segment storage ~segment ~oid)
      0 heaps
  in
  let ncols = Mpp_catalog.Table.ncols table in
  let values = Array.init ncols (fun _ -> Array.make rowcount Value.Null) in
  let filled = Array.make ncols 0 in
  let width = ref 0 in
  List.iter
    (fun (segment, oid) ->
      let heap = Storage.scan_vec storage ~segment ~oid in
      for r = Mpp_storage.Vec.length heap - 1 downto 0 do
        let tuple = Mpp_storage.Vec.unsafe_get heap r in
        for c = 0 to ncols - 1 do
          let v = tuple.(c) in
          width := !width + Value.serialized_size v;
          if not (Value.is_null v) then begin
            values.(c).(filled.(c)) <- v;
            filled.(c) <- filled.(c) + 1
          end
        done
      done)
    heaps;
  let columns =
    Array.init ncols (fun c ->
        let n = filled.(c) in
        let histogram =
          Histogram.of_array ~null_rows:(rowcount - n)
            (if n = rowcount then values.(c) else Array.sub values.(c) 0 n)
        in
        {
          histogram;
          ndv = max 1 (Histogram.ndv histogram);
          null_frac =
            (if rowcount = 0 then 0.0
             else float_of_int (rowcount - n) /. float_of_int rowcount);
        })
  in
  let avg_width = if rowcount = 0 then 1 else !width / rowcount in
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
