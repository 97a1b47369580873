(** Table- and column-level statistics collected from storage — the ANALYZE
    of the simulated system. *)

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

val analyze : Mpp_storage.Storage.t -> Mpp_catalog.Table.t -> table_stats
(** One pass over the table's heaps (replicated tables read once) that
    fills a value array per column; histograms come from
    {!Histogram.of_array}, so Int and Date columns are radix-sorted and
    every bucket bound is a stored value. *)

val defaults : Mpp_catalog.Table.t -> table_stats
(** Textbook defaults when nothing has been analyzed. *)
