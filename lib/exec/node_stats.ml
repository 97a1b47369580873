(** Per-plan-node runtime statistics — the executor side of
    [EXPLAIN ANALYZE] and the raw signal of the query profiler.

    Plan nodes are identified by their {e pre-order index} in the plan tree
    (the root is 0, a node's first child is its index + 1, the next sibling
    follows the whole subtree).  {!Mpp_exec.Exec} fills one {!node} record
    per index when a stats collector is attached to the execution context;
    {!Explain} re-walks the plan with the same numbering to render the
    annotations.  When no collector is attached the executor skips all
    bookkeeping, so the disabled path costs nothing per row.

    Each record additionally shards its rows and time {e per segment}:
    [seg_rows.(s)] is filled deterministically on the coordinating domain
    (from a breaker's per-segment batches, or from a streamed operator's
    per-segment counts once its pipeline has run, so serial and parallel
    runs agree bit for bit), while [seg_time_s.(s)] is accumulated inside the
    per-segment tasks themselves — distinct array slots per segment, so
    the parallel sections write without synchronization.  The per-segment
    rows feed the {!skew} ratio surfaced in [EXPLAIN ANALYZE]: a perfectly
    skewed join and a balanced one no longer look identical. *)

type node = {
  mutable invocations : int;  (** times the node produced its result *)
  mutable rows : int;  (** rows emitted, summed over segments *)
  mutable time_s : float;  (** inclusive wall time, seconds *)
  mutable parts_scanned : int;
      (** DynamicScan: distinct leaf partitions actually read *)
  mutable parts_total : int;  (** leaves of the scanned root table *)
  mutable parts_selected : int;
      (** PartitionSelector: distinct leaves pushed to its channel, over
          all segments *)
  mutable tuples_moved : int;  (** Motion: rows crossing the interconnect *)
  seg_rows : int array;
      (** rows emitted per segment; recorded on the coordinating domain *)
  seg_time_s : float array;
      (** per-segment task wall time; written inside the parallel section
          (segment [s]'s task is the only toucher of slot [s]) *)
}

type t = {
  nodes : (int, node) Hashtbl.t;
  clock : unit -> float;
  mutable nsegments : int;
      (** sizes the per-segment arrays of records created from now on; set
          by the executor before any node is touched *)
}

let create ?(clock = Unix.gettimeofday) ?(nsegments = 1) () =
  { nodes = Hashtbl.create 32; clock; nsegments = max 1 nsegments }

(** Set the segment count for subsequently created records.  {!Exec} calls
    this from [create_ctx], before any node is touched, so every record in
    a run has arrays of the cluster's width. *)
let set_nsegments t n = t.nsegments <- max 1 n

let nsegments t = t.nsegments

let time t = t.clock ()

let fresh_node ~nsegments =
  {
    invocations = 0;
    rows = 0;
    time_s = 0.0;
    parts_scanned = 0;
    parts_total = 0;
    parts_selected = 0;
    tuples_moved = 0;
    seg_rows = Array.make nsegments 0;
    seg_time_s = Array.make nsegments 0.0;
  }

(** The record for pre-order index [id], created on first touch. *)
let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None ->
      let n = fresh_node ~nsegments:t.nsegments in
      Hashtbl.replace t.nodes id n;
      n

let find t id = Hashtbl.find_opt t.nodes id

(** Sum of [rows] over the nodes selected by [pred] (defaults to all). *)
let total_rows ?(pred = fun _ _ -> true) t =
  Hashtbl.fold
    (fun id n acc -> if pred id n then acc + n.rows else acc)
    t.nodes 0

let clear t = Hashtbl.reset t.nodes

(* ------------------------------------------------------------------ *)
(* Per-segment summaries                                               *)
(* ------------------------------------------------------------------ *)

type seg_summary = { seg_min : int; seg_max : int; seg_mean : float }

let summarize (a : int array) =
  if Array.length a = 0 then { seg_min = 0; seg_max = 0; seg_mean = 0.0 }
  else begin
    let mn = ref a.(0) and mx = ref a.(0) and total = ref 0 in
    Array.iter
      (fun v ->
        if v < !mn then mn := v;
        if v > !mx then mx := v;
        total := !total + v)
      a;
    {
      seg_min = !mn;
      seg_max = !mx;
      seg_mean = float_of_int !total /. float_of_int (Array.length a);
    }
  end

let rows_summary n = summarize n.seg_rows

(** Segment skew ratio over emitted rows: max over segments divided by the
    cross-segment mean.  1.0 for a perfectly balanced node, [nsegments]
    for all rows on one segment; defined as 1.0 when the node emitted
    nothing (no rows, no skew).  Computed from [seg_rows], which is filled
    deterministically, so serial and parallel runs report the same
    ratio. *)
let skew n =
  let s = rows_summary n in
  if s.seg_mean <= 0.0 then 1.0 else float_of_int s.seg_max /. s.seg_mean
