(** The query executor: interprets a physical {!Mpp_plan.Plan.t} on the
    simulated MPP cluster.

    Execution is segment-synchronous between pipeline breakers: each
    breaker produces, for each segment, the batch of rows that operator
    would emit on that segment; [Motion] nodes re-shuffle the per-segment
    batches.  Side-effect ordering follows the paper's conventions —
    [Sequence] children run left to right and a join's left child runs
    before its right child — so a PartitionSelector always executes (and
    pushes its partitions into the per-segment {!Channel}) before the
    DynamicScan that consumes them.

    Five hot-path design decisions (the Figure 15 argument, applied to the
    whole executor, plus the paper's MPP premise):

    - {b Compiled expressions.}  Every operator compiles its expressions
      once via {!Expr.compile} / {!Expr.compile_pred}: column references
      resolve to fixed tuple offsets at compile time, parameters are bound,
      and evaluation is a closure over the flat row — no per-row environment
      records, no per-row layout search.
    - {b Per-segment pipelines.}  Scans, Filter, Project, RuntimeFilter,
      Sequence, Append and the probe side of hash and nested-loop joins
      stream: each hands its rows, one at a time, to the operator above
      through a [row -> unit] consumer (the produce/consume model, Neumann,
      VLDB 2011).  Batches ({!Mpp_storage.Vec.t}) are built only at a
      pipeline breaker: a join's build side, Motion, Sort, Limit, the DML
      source, Agg output and the query result.  A pipeline's per-row work
      runs inside its breaker's fan-out and is timed there.  An unfiltered
      scan hands on the heaps it reads as they are: a DynamicScan's
      partition heaps are walked in turn, or concatenated once by a
      breaker that keeps them, and a single heap that feeds a breaker is
      aliased, not copied.
    - {b Transient rows.}  A join emits each output row into one
      per-segment scratch tuple, and Project does the same: such a row is
      valid only until the consumer returns.  A pipeline says so
      ([transient]); the one batch builder ([collect]) copies a transient
      row when it keeps it, and every other consumer reads values out of
      the row without keeping it.  Rows from a heap or a batch are never
      written and pass through unchanged.
    - {b One key table.}  Hash joins (build and probe), grouped
      aggregation and DELETE's deleted-tuple multiset all use {!Keytbl}:
      open addressing over flat parallel arrays of keys, hashes and [int]
      values, keyed on one value or a tuple, with {!Value.equal} (SQL [=],
      so [Int 1] matches [Float 1.0]) and {!Keytbl.hash}.  A lookup
      allocates nothing: probe and group keys go through a per-segment
      scratch tuple whose components are copied only when a new key is
      stored.  A join's equal-key build rows form an index chain headed by
      the entry's value; a grouped aggregation's groups are the table's
      entries, in first-seen order.  Aggregates pick their per-row feeder
      at compile time.  The streaming partition selector keys on nothing:
      a row costs one {!Index.add_point} per equality level.
    - {b Segment parallelism.}  Each breaker's per-segment work fans out
      across a {!Dpool} domain pool (knob: [MPP_DOMAINS] / [?domains]).  The
      plan walk itself stays on the coordinating domain; {!Channel} and
      {!Metrics} are sharded per segment so the parallel sections share no
      mutable state — segment [s]'s domain is the only toucher of shard
      [s]. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Vec = Mpp_storage.Vec
module Trace = Mpp_obs.Trace
module Bitset = Mpp_catalog.Bitset
module Index = Mpp_catalog.Partition.Index

type row = Value.t array

(* Profiler track-id convention (Perfetto threads): 0 = the coordinator
   (per-node spans from the plan walk), 1 = the optimizer (spans added by
   front ends), 2 + i = executor domain i (per-segment task events). *)
let coordinator_tid = 0
let optimizer_tid = 1
let domain_tid i = 2 + i

type ctx = {
  catalog : Mpp_catalog.Catalog.t;
  storage : Mpp_storage.Storage.t;
  channel : Channel.t;  (** sharded per segment *)
  metrics : Metrics.t array;
      (** one shard per segment; shard 0 additionally takes the
          coordinator-side counters (Motion volumes, DML row counts).
          {!metrics} merges them into the per-query total. *)
  params : Value.t array;
  selection_enabled : bool;
      (** when [false], PartitionSelectors ignore their predicates and push
          every leaf — the "partition selection disabled" configuration
          of the paper's Figure 17 *)
  stats : Node_stats.t option;
      (** when set, the interpreter records per-plan-node actual rows,
          partitions scanned and wall time (the EXPLAIN ANALYZE data);
          [None] skips all per-node bookkeeping *)
  pool : Dpool.t;  (** executes the per-segment loops *)
  verify : bool;
      (** when set, every built runtime join filter's min-max summary is
          cross-checked against the static bounds of its build subtree
          ({!Mpp_analysis.Analysis.minmax_violations}); the plan itself was
          verified by the optimizer that made it *)
  runtime_filters : bool;
      (** when [false], [Runtime_filter_build] / [Runtime_filter] nodes are
          pure pass-throughs — the "runtime filters off" half of the
          on/off comparison; plans are identical either way, only the
          executor behaviour changes *)
  mutable rf_motion_claimed : int;
      (** pre-Motion drops already credited to [motion_rows_saved] by some
          Motion: each Motion claims only the drops below it that no inner
          Motion claimed first, so a drop is credited exactly once — at its
          nearest enclosing Motion, the send it actually skipped.  Only
          touched on the coordinating domain (Motions execute there). *)
  trace : Trace.t;
      (** profiler timeline: per-node events on the coordinator track,
          per-segment task events on the executing domain's track;
          {!Trace.null} (one flag test per node) when not profiling *)
  mutable cur_node : int;
      (** pre-order index of the node whose coordinator-side work is
          running (a breaker's execution, a streamed node's opening), so
          a per-segment fan-out can attribute task time to it — a
          pipeline's rows are charged to its breaker; -1 outside any
          node.  Coordinating domain only (saved/restored around child
          execution). *)
  mutable cur_label : string;
      (** the current node's one-line operator description, for trace
          events; maintained only while the trace is enabled *)
}

let create_ctx ?(params = [||]) ?(selection_enabled = true) ?(verify = false)
    ?(runtime_filters = true) ?stats ?(trace = Trace.null) ?domains ?pool
    ~catalog ~storage () =
  let nsegs = Mpp_storage.Storage.nsegments storage in
  let domains =
    match domains with Some d -> d | None -> Dpool.default_domains ()
  in
  (* A caller-supplied pool wins over the shared per-size pools: the
     serving layer gives each worker domain a private pool, because a
     [Dpool] has a single job slot and must never take submissions from
     two domains at once. *)
  let pool =
    match pool with Some p -> p | None -> Dpool.get ~domains
  in
  (* Size the per-segment stat arrays before any node record exists. *)
  (match stats with
  | Some st -> Node_stats.set_nsegments st nsegs
  | None -> ());
  (* Name every executor track up front so idle domains still show in the
     exported timeline — the "one track per domain" contract. *)
  if Trace.enabled trace then begin
    Trace.declare_track trace ~tid:coordinator_tid "coordinator";
    for i = 0 to Dpool.size pool - 1 do
      Trace.declare_track trace ~tid:(domain_tid i)
        (Printf.sprintf "domain-%d" i)
    done
  end;
  {
    catalog;
    storage;
    channel = Channel.create ~nsegments:nsegs;
    metrics = Array.init nsegs (fun _ -> Metrics.create ());
    params;
    selection_enabled;
    stats;
    pool;
    verify;
    runtime_filters;
    rf_motion_claimed = 0;
    trace;
    cur_node = -1;
    cur_label = "";
  }

type result = {
  layout : (int * int) list;  (** (range-table index, width) left to right *)
  rows : row Vec.t array;  (** one row batch per segment *)
}

let nsegments ctx = Mpp_storage.Storage.nsegments ctx.storage

let empty_rows ctx = Array.init (nsegments ctx) (fun _ -> Vec.create ())

(** The per-query metrics total: all per-segment shards merged. *)
let metrics ctx = Metrics.merge_all ctx.metrics

(* Per-segment fan-out: one task per segment across the domain pool.  The
   closure for segment [s] may only touch per-segment state (its own output
   batch, channel shard [s], metrics shard [s]).

   When profiling, each task is additionally timed: its wall time lands in
   the current node's [seg_time_s.(s)] slot (segment [s]'s task is the
   only writer of slot [s], so the parallel section needs no locks) and,
   when the trace is enabled, an event on the {e executing domain's}
   track — which is how the Perfetto timeline shows which domain ran
   which segment of which operator. *)
let par_init ctx (f : int -> 'a) : 'a array =
  let n = nsegments ctx in
  let node =
    match ctx.stats with
    | Some st when ctx.cur_node >= 0 -> Node_stats.find st ctx.cur_node
    | _ -> None
  in
  let traced = Trace.enabled ctx.trace in
  match (node, traced) with
  | None, false -> Dpool.map_init ctx.pool n f
  | _ ->
      let id = ctx.cur_node and label = ctx.cur_label in
      let clock =
        if traced then fun () -> Trace.now ctx.trace
        else
          match ctx.stats with
          | Some st -> fun () -> Node_stats.time st
          | None -> Unix.gettimeofday
      in
      Dpool.map_init ctx.pool n (fun seg ->
          let t0 = clock () in
          let r = f seg in
          let t1 = clock () in
          (match node with
          | Some nd when seg < Array.length nd.Node_stats.seg_time_s ->
              nd.Node_stats.seg_time_s.(seg) <-
                nd.Node_stats.seg_time_s.(seg) +. (t1 -. t0)
          | _ -> ());
          if traced then
            Trace.emit ctx.trace
              ~tid:(domain_tid (Dpool.worker_index ()))
              ~cat:"segment" ~name:label
              ~args:
                [
                  ("node", Mpp_obs.Json.Int id);
                  ("segment", Mpp_obs.Json.Int seg);
                ]
              ~start:t0 ~stop:t1 ();
          r)

(* ------------------------------------------------------------------ *)
(* Pipelines                                                           *)
(* ------------------------------------------------------------------ *)

(* One segment's output of a streamed operator: rows that already exist, as
   a sequence of batches (a breaker's output, or the heaps an unfiltered
   scan reads), or a producer that hands each row to a consumer. *)
type feed = Batches of row Vec.t list | Push of ((row -> unit) -> unit)

(* A streamed operator, opened: every breaker below it has run and its
   expressions are compiled.  [feed s] is segment [s]'s producer, called
   once inside the sink's task for [s]; [close] runs after that fan-out
   (it flushes the per-node row counts).  [transient]: [Push] hands out a
   per-segment scratch row that the producer overwrites once the consumer
   returns, so a consumer that keeps a row must copy it. *)
type pipe = {
  layout : (int * int) list;
  transient : bool;
  feed : int -> feed;
  close : unit -> unit;
}

let iter_feed k = function
  | Batches vs -> List.iter (Vec.iter k) vs
  | Push f -> f k

let of_result (r : result) =
  {
    layout = r.layout;
    transient = false;
    feed = (fun s -> Batches [ r.rows.(s) ]);
    close = ignore;
  }

(* A stage that drops the rows [test s] rejects on segment [s]. *)
let filter_stage (p : pipe) (test : int -> row -> bool) =
  {
    p with
    feed =
      (fun s ->
        let t = test s and src = p.feed s in
        Push (fun k -> iter_feed (fun r -> if t r then k r) src));
  }

(* Segment [s]'s rows as a batch — the one place a kept row is copied.  A
   single batch passes through as it is (a heap stays aliased); several are
   concatenated into one exactly-sized batch. *)
let collect (p : pipe) s =
  match p.feed s with
  | Batches [ v ] -> v
  | Batches vs -> Vec.concat vs
  | Push f ->
      let out = Vec.create () in
      if p.transient then f (fun r -> Vec.push out (Array.copy r))
      else f (Vec.push out);
      out

(* The pipeline's sink that keeps every row: one batch per segment. *)
let materialize ctx (p : pipe) : result =
  let rows = par_init ctx (collect p) in
  p.close ();
  { layout = p.layout; rows }

(* ------------------------------------------------------------------ *)
(* Layout plumbing and expression compilation                          *)
(* ------------------------------------------------------------------ *)

let offset_of layout rel =
  let rec go off = function
    | [] -> None
    | (r, w) :: rest -> if r = rel then Some off else go (off + w) rest
  in
  go 0 layout

let layout_width layout = List.fold_left (fun acc (_, w) -> acc + w) 0 layout

(* The compile-time column resolver for an operator's input layout: the
   linear search happens once per compiled column reference, never per
   row. *)
let resolver layout : Colref.t -> int =
 fun c ->
  match offset_of layout c.Colref.rel with
  | Some off -> off + c.Colref.index
  | None ->
      invalid_arg
        (Printf.sprintf "Exec: column %s not in scope" (Colref.to_string c))

let compile_expr ctx layout e =
  Expr.compile ~resolve:(resolver layout) ~params:ctx.params e

let compile_filter ctx layout e =
  Expr.compile_pred ~resolve:(resolver layout) ~params:ctx.params e

(* Column lookup that yields [None] for out-of-scope relations; used to
   specialize selector predicates with the columns that are in scope. *)
let partial_lookup layout (tuple : row) (c : Colref.t) =
  match offset_of layout c.Colref.rel with
  | Some off -> Some tuple.(off + c.Colref.index)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Scans                                                               *)
(* ------------------------------------------------------------------ *)

let partitioning_of ctx root_oid =
  match
    (Mpp_catalog.Catalog.find_oid ctx.catalog root_oid).Mpp_catalog.Table
      .partitioning
  with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Exec: PartitionSelector on non-partitioned oid %d"
           root_oid)

let index_of ctx root_oid =
  (partitioning_of ctx root_oid).Mpp_catalog.Partition.index

(* Table [oid] as the partition counters see it: its root, its leaf
   position there and the set of just that position — position 0 of a
   one-leaf root when unpartitioned. *)
let leaf_position ctx oid =
  let root = Mpp_catalog.Catalog.root_of ctx.catalog oid in
  if root = oid then (oid, Bitset.full 1, 0)
  else
    let ix = index_of ctx root in
    let pos = Option.get (Index.position ix oid) in
    let parts = Bitset.create (Index.nparts ix) in
    Bitset.set parts pos;
    (root, parts, pos)

let table_width ctx oid =
  Mpp_catalog.Table.ncols (Mpp_catalog.Catalog.find_oid ctx.catalog oid)

(* A runtime join filter a [Runtime_filter] stage hands to the scan
   directly beneath it, so the Bloom test runs inside the scan's row loop:
   - [rf_make segment] is called once per segment inside the sink's task;
     the returned closure owns per-segment scratch and counts dropped rows
     into that segment's metrics shard;
   - [rf_allowed] is the min-max summary intersected with the partition
     index: the leaf positions that can possibly hold matching join keys.
     A DynamicScan drops channel leaves outside it without opening them. *)
type scan_rf = {
  rf_make : int -> row -> bool;
  rf_allowed : Bitset.t option;
}

(* The scan's row test: the runtime filter's Bloom test first (a hash and a
   handful of bit probes, cheaper than most compiled predicates and
   selective by construction), then the scan's own filter. *)
let scan_pred ?rf ~segment pred =
  match (rf, pred) with
  | None, p -> p
  | Some f, None -> Some (f.rf_make segment)
  | Some f, Some p ->
      let t = f.rf_make segment in
      Some (fun row -> t row && p row)

(* One segment's scan output over the heaps it read: without a test they
   pass on as they are (aliased, never concatenated here). *)
let heaps_feed test heaps =
  match test with
  | None -> Batches heaps
  | Some p ->
      Push (fun k -> List.iter (Vec.iter (fun r -> if p r then k r)) heaps)

let stream_table_scan ctx ?rf ~rel ~table_oid ~filter ~guard () =
  let root, parts, pos = leaf_position ctx table_oid in
  let layout = [ (rel, table_width ctx root) ] in
  let pred = Option.map (compile_filter ctx layout) filter in
  let feed segment =
    match guard with
    | Some part_scan_id
      when not (Channel.mem ctx.channel ~segment ~part_scan_id pos) ->
        Batches []
    | _ ->
        let heap =
          Mpp_storage.Storage.scan_vec ctx.storage ~segment ~oid:table_oid
        in
        Metrics.record_scan ctx.metrics.(segment) ~root_oid:root parts
          ~rows:(Vec.length heap);
        heaps_feed (scan_pred ?rf ~segment pred) [ heap ]
  in
  { layout; transient = false; feed; close = ignore }

(* The selected partition heaps, read one after another in ascending leaf
   position (= ascending OID).  The min-max ∩ partition-index elimination
   drops channel leaves outside the filter's possible key range without
   opening their heap — pruning beyond what the (static or streaming)
   selector already did. *)
let stream_dynamic_scan ctx ?rf ~rel ~part_scan_id ~root_oid ~filter () =
  let layout = [ (rel, table_width ctx root_oid) ] in
  let pred = Option.map (compile_filter ctx layout) filter in
  let leaves = (partitioning_of ctx root_oid).Mpp_catalog.Partition.leaves in
  let allowed = Option.bind rf (fun f -> f.rf_allowed) in
  let feed segment =
    let heaps =
      match Channel.consume ?allowed ctx.channel ~segment ~part_scan_id with
      | None -> []
      | Some parts ->
          let heaps =
            Bitset.fold_right_set
              (fun pos acc ->
                Mpp_storage.Storage.scan_vec ctx.storage ~segment
                  ~oid:leaves.(pos).Mpp_catalog.Partition.leaf_oid
                :: acc)
              parts []
          in
          Metrics.record_scan ctx.metrics.(segment) ~root_oid parts
            ~rows:(List.fold_left (fun n h -> n + Vec.length h) 0 heaps);
          heaps
    in
    heaps_feed (scan_pred ?rf ~segment pred) heaps
  in
  { layout; transient = false; feed; close = ignore }

(* ------------------------------------------------------------------ *)
(* Partition selection                                                 *)
(* ------------------------------------------------------------------ *)

(* Compiled per-level selection behaviour.  Real systems generate a
   specialized partition-selection function per selector (paper §3.2,
   Figure 15); interpreting the predicate per input row would make the
   selector cost visible at run time, so we compile each level once:
   - [Sel_none]: no predicate (or selection disabled) — no restriction;
   - [Sel_static]: the restriction is row-independent (static elimination
     and prepared-statement parameters);
   - [Sel_point]: the predicate is [key = e] with [e] over the input row —
     the equality fast path of Figure 15(a);
   - [Sel_dynamic]: general fallback — substitute the row and re-analyze. *)
type level_selector =
  | Sel_none
  | Sel_static of Interval.Set.t
  | Sel_point of Expr.t
  | Sel_dynamic of Expr.t

(* [key = e] where e does not mention the key itself. *)
let point_equality (key : Colref.t) p =
  match Expr.conjuncts p with
  | [ Expr.Cmp (Expr.Eq, Expr.Col k, e) ] when Colref.equal k key
    && not (List.exists (Colref.equal key) (Expr.free_cols e)) ->
      Some e
  | [ Expr.Cmp (Expr.Eq, e, Expr.Col k) ] when Colref.equal k key
    && not (List.exists (Colref.equal key) (Expr.free_cols e)) ->
      Some e
  | _ -> None

let compile_selector ctx ~keys ~predicates : level_selector array =
  List.map2
    (fun key pred ->
      if not ctx.selection_enabled then Sel_none
      else
        match pred with
        | None -> Sel_none
        | Some p -> (
            let p =
              Expr.bind_params
                (fun i ->
                  if i < Array.length ctx.params then Some ctx.params.(i)
                  else None)
                p
            in
            match Expr.restriction key p with
            | Some set -> Sel_static set
            | None -> (
                match point_equality key p with
                | Some e -> Sel_point e
                | None -> Sel_dynamic p)))
    keys predicates
  |> Array.of_list

(* Row-independent selection (leaf selectors, Figure 5(a–c)): compute the
   leaf set once and push it on every segment. *)
let run_static_selection ctx ~part_scan_id ~root_oid
    (selectors : level_selector array) =
  let index = index_of ctx root_oid in
  let restrictions =
    Array.map
      (function
        | Sel_none -> None
        | Sel_static set -> Some set
        | Sel_point _ | Sel_dynamic _ ->
            (* no input rows to specialize with: fail open *)
            None)
      selectors
  in
  let bits = Index.select_bits index restrictions in
  for segment = 0 to nsegments ctx - 1 do
    Channel.propagate ctx.channel ~segment ~part_scan_id bits
  done

(* Row-driven selection (the DPE case, Figure 5(d)).  Selection goes
   through the table's index, resolved here on the coordinating domain and
   then read-only inside the parallel section.

   With no [Sel_dynamic] level this is the equality fast path of
   Figure 15(a), and it allocates nothing per row.  The static levels'
   survivors are computed once.  Each row costs one {!Index.add_point} per
   point level (a binary search or a hash hit); the row's set is the
   static survivors intersected with each level's, and it is unioned into
   the segment's accumulator.  A NULL point selects nothing.  The
   accumulator is pushed once per segment that has input rows, so the
   channel slot is the union of the rows' leaf sets; a segment without
   rows pushes nothing.

   A [Sel_dynamic] level re-analyzes the predicate with the row
   substituted, and pushes each row's leaf set. *)
let run_streaming_selection ctx ~part_scan_id ~root_oid ~keys
    (selectors : level_selector array) (child : result) =
  let index = index_of ctx root_oid in
  let resolve = resolver child.layout in
  (* compile the per-level point expressions once, not per row *)
  let points =
    Array.map
      (function
        | Sel_point e -> Some (Expr.compile ~resolve ~params:ctx.params e)
        | Sel_none | Sel_static _ | Sel_dynamic _ -> None)
      selectors
  in
  let push segment bits =
    Channel.propagate ctx.channel ~segment ~part_scan_id bits
  in
  if Array.exists (function Sel_dynamic _ -> true | _ -> false) selectors
  then begin
    let keys = Array.of_list keys in
    let leaves_for row =
      Index.select_bits index
        (Array.mapi
           (fun i sel ->
             match sel with
             | Sel_none -> None
             | Sel_static set -> Some set
             | Sel_point _ -> (
                 match (Option.get points.(i)) row with
                 | Value.Null -> Some Interval.Set.empty
                 | v -> Some (Interval.Set.point v))
             | Sel_dynamic p ->
                 Expr.restriction keys.(i)
                   (Expr.subst_cols (partial_lookup child.layout row) p))
           selectors)
    in
    ignore
      (par_init ctx (fun segment ->
           Vec.iter (fun row -> push segment (leaves_for row))
             child.rows.(segment)))
  end
  else begin
    let static_bits =
      Index.select_bits index
        (Array.map (function Sel_static set -> Some set | _ -> None) selectors)
    in
    let nleaves = Index.nparts index in
    ignore
      (par_init ctx (fun segment ->
           let rows = child.rows.(segment) in
           if Vec.length rows > 0 then begin
             (* the segment's union, the current row's set, one level's *)
             let acc = Bitset.create nleaves
             and row_bits = Bitset.create nleaves
             and level_bits = Bitset.create nleaves in
             Vec.iter
               (fun row ->
                 Bitset.clear row_bits;
                 Bitset.union_into ~into:row_bits static_bits;
                 let live = ref true in
                 for level = 0 to Array.length points - 1 do
                   match points.(level) with
                   | Some f when !live -> (
                       match f row with
                       | Value.Null -> live := false
                       | v ->
                           Bitset.clear level_bits;
                           Index.add_point index ~level v level_bits;
                           Bitset.inter_into ~into:row_bits level_bits)
                   | _ -> ()
                 done;
                 if !live then Bitset.union_into ~into:acc row_bits)
               rows;
             push segment acc
           end))
  end

(* ------------------------------------------------------------------ *)
(* Runtime join filters                                                *)
(* ------------------------------------------------------------------ *)

(* Build side: feed every build row's key tuple into a per-segment Bloom +
   min-max filter and publish it on the channel.  Sizing uses only the
   plan's [rows_est], so every segment's filter has the same shape and the
   coordinator's merge is a word-wise union.  Pass-through for rows.

   [check_against] (the build subtree's plan, passed under [ctx.verify])
   cross-checks the built min-max summaries against the statically derived
   bounds of that subtree ({!Mpp_analysis.Analysis.minmax_violations}): an
   observed key outside the static range means the filter was built over
   the wrong rows or columns, which would silently drop probe-side rows. *)
let exec_rf_build ctx ~rf_id ~keys ~rows_est ?check_against (child : result) =
  let offs = Array.of_list (List.map (resolver child.layout) keys) in
  let nkeys = Array.length offs in
  let blooms = Array.make (Array.length child.rows) None in
  ignore
    (par_init ctx (fun segment ->
         let bloom = Bloom.create ~nkeys ~expected:rows_est in
         let scratch = Array.make nkeys Value.Null in
         Vec.iter
           (fun row ->
             for i = 0 to nkeys - 1 do
               scratch.(i) <- row.(offs.(i))
             done;
             Bloom.add bloom scratch)
           child.rows.(segment);
         blooms.(segment) <- Some bloom;
         Channel.publish_filter ctx.channel ~segment ~rf_id bloom;
         let m = ctx.metrics.(segment) in
         m.Metrics.filter_built <- m.Metrics.filter_built + 1));
  (match check_against with
  | None -> ()
  | Some build_plan -> (
      (* combined per-key summary across the segment filters *)
      let minmax key =
        Array.fold_left
          (fun acc b ->
            match b with
            | None -> acc
            | Some b -> (
                match (Bloom.minmax b ~key, acc) with
                | None, acc -> acc
                | (Some _ as r), None -> r
                | Some (lo, hi), Some (lo0, hi0) ->
                    Some
                      ( (if Value.compare lo lo0 < 0 then lo else lo0),
                        if Value.compare hi hi0 > 0 then hi else hi0 )))
          None blooms
      in
      match
        Mpp_analysis.Analysis.minmax_violations ~catalog:ctx.catalog
          ~child:build_plan ~keys ~minmax
      with
      | [] -> ()
      | vs ->
          failwith
            (Printf.sprintf
               "runtime filter %d: built summary outside static bounds: %s"
               rf_id
               (String.concat "; " vs))));
  child

(* Probe side: the per-segment row test over the merged filter.  The
   factory is invoked once per segment inside a parallel section; the
   closure owns that segment's scratch tuple and counts every dropped row
   into that segment's metrics shard ([rows_filtered_motion] when the
   filter sits under a Motion send, [rows_filtered_scan] otherwise). *)
let rf_make_test ctx ~at_motion mf layout keys =
  let offs = Array.of_list (List.map (resolver layout) keys) in
  let nkeys = Array.length offs in
  let count (m : Metrics.t) =
    if at_motion then
      m.Metrics.rows_filtered_motion <- m.Metrics.rows_filtered_motion + 1
    else m.Metrics.rows_filtered_scan <- m.Metrics.rows_filtered_scan + 1
  in
  if nkeys = 1 then (
    (* single join key — the overwhelmingly common case: test the column
       value directly, no scratch-tuple traffic per row *)
    let off = offs.(0) in
    fun segment ->
      let m = ctx.metrics.(segment) in
      fun (row : row) ->
        let keep = Bloom.mem1 mf row.(off) in
        if not keep then count m;
        keep)
  else
    fun segment ->
    let scratch = Array.make nkeys Value.Null in
    let m = ctx.metrics.(segment) in
    fun (row : row) ->
      for i = 0 to nkeys - 1 do
        scratch.(i) <- row.(offs.(i))
      done;
      let keep = Bloom.mem mf scratch in
      if not keep then count m;
      keep

(* The min-max ∩ partition-index intersection: for each partitioning level
   of [root_oid] whose key column is one of the filter's probe-side key
   columns, the merged filter's [lo, hi] summary becomes a closed-interval
   restriction; the selection index turns the restriction array into the
   set of leaves that can possibly hold matching keys.  An empty build
   side restricts every matched level to the empty set.  [None] when no
   level is covered (no pruning possible). *)
let rf_allowed_leaves ctx ~root_oid ~rel keys mf =
  let part = partitioning_of ctx root_oid in
  let index = index_of ctx root_oid in
  let covered = ref false in
  let restrictions =
    Array.map
      (fun (lv : Mpp_catalog.Partition.level) ->
        let rec find i = function
          | [] -> None
          | (k : Colref.t) :: rest ->
              if k.Colref.rel = rel && k.Colref.index = lv.key_index then
                Some i
              else find (i + 1) rest
        in
        match find 0 keys with
        | None -> None
        | Some kpos ->
            covered := true;
            if Bloom.count mf = 0 then Some Interval.Set.empty
            else (
              match Bloom.minmax mf ~key:kpos with
              | None -> None
              | Some (lo, hi) ->
                  Some
                    (Interval.Set.of_interval_opt
                       (Interval.make (Interval.B (lo, true))
                          (Interval.B (hi, true))))))
      part.Mpp_catalog.Partition.levels
  in
  if !covered then Some (Index.select_bits index restrictions) else None

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

(* Split an equi-join predicate into hashable key pairs (left expr, right
   expr) plus a residual predicate.  A key side references only the left
   (build) relations, its partner none of them: the probe side's relations
   are not needed, so the build runs before the probe side is opened. *)
let equi_keys ~left_rels pred =
  let left_only e = List.for_all (fun r -> List.mem r left_rels) (Expr.rels e)
  and no_left e =
    not (List.exists (fun r -> List.mem r left_rels) (Expr.rels e))
  in
  let keys, residual =
    List.fold_left
      (fun (keys, residual) c ->
        match c with
        | Expr.Cmp (Expr.Eq, a, b) when left_only a && no_left b ->
            ((a, b) :: keys, residual)
        | Expr.Cmp (Expr.Eq, a, b) when no_left a && left_only b ->
            ((b, a) :: keys, residual)
        | c -> (keys, c :: residual))
      ([], []) (Expr.conjuncts pred)
  in
  (List.rev keys, List.rev residual)

(* A join's per-segment build-side index.  Build rows with equal keys form
   a chain through [next] (-1 ends it) whose head is the key's table value;
   rows are linked back to front, so a chain walks ascending build order.
   Without an equi-key (nested loop) there is no table and one chain runs
   through every build row. *)
type join_index = {
  build : row Vec.t;
  next : int array;
  table : Keytbl.t option;
}

(* Fill [scratch] with the key functions [fns] applied to [row]: false as
   soon as a component is NULL. *)
let rec fill_keys (fns : (row -> Value.t) array) scratch row i =
  i = Array.length fns
  ||
  let v = (Array.unsafe_get fns i) row in
  Array.unsafe_set scratch i v;
  (not (Value.is_null v)) && fill_keys fns scratch row (i + 1)

let build_index (lkeys : (row -> Value.t) array) (build : row Vec.t) :
    join_index =
  let n = Vec.length build in
  let next = Array.make n (-1) in
  let nkeys = Array.length lkeys in
  if nkeys = 0 then begin
    for bi = 0 to n - 2 do
      next.(bi) <- bi + 1
    done;
    { build; next; table = None }
  end
  else begin
    let tbl = Keytbl.create ~width:nkeys ~init:(-1) n in
    (* build row [bi] becomes the head of entry [e]'s chain: one probe *)
    let link e bi =
      next.(bi) <- Keytbl.get tbl e;
      Keytbl.set tbl e bi
    in
    let scratch = Array.make nkeys Value.Null in
    for bi = n - 1 downto 0 do
      if fill_keys lkeys scratch (Vec.unsafe_get build bi) 0 then
        link (Keytbl.intern tbl scratch) bi
    done;
    { build; next; table = Some tbl }
  end

(* One segment's probe: the head of the probe row's chain, -1 when no build
   row matches (a NULL key included).  Probe keys go through one scratch
   tuple that lookups never retain. *)
let probe_first ix (rkeys : (row -> Value.t) array) : row -> int =
  match ix.table with
  | None ->
      let head = if Vec.length ix.build > 0 then 0 else -1 in
      fun _ -> head
  | Some tbl ->
      let nkeys = Array.length rkeys in
      let scratch = Array.make nkeys Value.Null in
      fun prow ->
        if not (fill_keys rkeys scratch prow 0) then -1
        else
          let e = Keytbl.find tbl scratch in
          if e < 0 then -1 else Keytbl.get tbl e

(* The build side, run to completion in the join's own fan-out: every
   segment's build rows and index. *)
let join_build ctx ~keys (left : pipe) =
  let lkeys =
    Array.of_list (List.map (fun (a, _) -> compile_expr ctx left.layout a) keys)
  in
  let ix = par_init ctx (fun s -> build_index lkeys (collect left s)) in
  left.close ();
  ix

(* The probe side streams through the segment's index.  Inner and left-outer
   output goes into one per-segment scratch row ([transient]): the probe
   row is copied in once, each matching build row beside it.  A semi join
   passes its probe rows on (its residual, if any, is tested on the
   scratch row). *)
let stream_join ctx ~kind ~keys ~residual ~(left_layout : (int * int) list)
    (ixs : join_index array) (right : pipe) : pipe =
  let joined = left_layout @ right.layout in
  let rkeys =
    Array.of_list
      (List.map (fun (_, b) -> compile_expr ctx right.layout b) keys)
  in
  let residual_pred = Expr.conj residual in
  let residual_fn =
    if Expr.equal residual_pred Expr.true_ then None
    else Some (compile_filter ctx joined residual_pred)
  in
  let lw = layout_width left_layout and rw = layout_width right.layout in
  let feed s =
    let ix = ixs.(s) in
    let first = probe_first ix rkeys and src = right.feed s in
    let build = ix.build and next = ix.next in
    let out = Array.make (lw + rw) Value.Null in
    match (kind, residual_fn) with
    | Plan.Semi, None ->
        Push
          (fun k -> iter_feed (fun prow -> if first prow >= 0 then k prow) src)
    | Plan.Semi, Some f ->
        Push
          (fun k ->
            iter_feed
              (fun prow ->
                let bi = ref (first prow) in
                if !bi >= 0 then Array.blit prow 0 out lw rw;
                while
                  !bi >= 0
                  &&
                  (Array.blit (Vec.unsafe_get build !bi) 0 out 0 lw;
                   not (f out))
                do
                  bi := next.(!bi)
                done;
                if !bi >= 0 then k prow)
              src)
    | (Plan.Inner | Plan.Left_outer), _ ->
        (* matched-build tracking by INDEX, not by row value: duplicate
           identical build rows each keep their own outer-join status *)
        let outer = kind = Plan.Left_outer in
        let matched =
          if outer then Bytes.make (Vec.length build) '\000' else Bytes.empty
        in
        Push
          (fun k ->
            iter_feed
              (fun prow ->
                let bi = ref (first prow) in
                if !bi >= 0 then Array.blit prow 0 out lw rw;
                while !bi >= 0 do
                  Array.blit (Vec.unsafe_get build !bi) 0 out 0 lw;
                  if match residual_fn with None -> true | Some f -> f out
                  then begin
                    if outer then Bytes.set matched !bi '\001';
                    k out
                  end;
                  bi := next.(!bi)
                done)
              src;
            (* Left_outer with left = preserved side: the unmatched build
               rows, padded with NULLs *)
            if outer then begin
              Array.fill out lw rw Value.Null;
              for bi = 0 to Vec.length build - 1 do
                if Bytes.get matched bi = '\000' then begin
                  Array.blit (Vec.unsafe_get build bi) 0 out 0 lw;
                  k out
                end
              done
            end)
  in
  match kind with
  | Plan.Semi ->
      { layout = right.layout; transient = right.transient; feed;
        close = right.close }
  | Plan.Inner | Plan.Left_outer ->
      { layout = joined; transient = true; feed; close = right.close }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(* One group's running state.  Per aggregate [i]: [cnt.(i)] non-NULL
   inputs; for SUM/AVG [isum.(i)] the integer inputs' sum, [fsum.(i)] the
   running float sum of every numeric input (a flat float array, so the
   update allocates nothing) and [nfloat.(i)] the float inputs seen (any
   makes SUM a float); for MIN/MAX [ext.(i)] the extreme so far ([Null]
   until the first input).  Arrays an aggregate list does not need are
   empty. *)
type group = {
  mutable nrows : int;
  cnt : int array;
  isum : int array;
  fsum : float array;
  nfloat : int array;
  ext : Value.t array;
}

(* The per-row work of aggregate [i] on its argument's value: COUNT only
   tests for NULL, SUM/AVG only add, MIN/MAX only compare. *)
let count_value g i v = if not (Value.is_null v) then g.cnt.(i) <- g.cnt.(i) + 1

let sum_value g i = function
  | Value.Null -> ()
  | Value.Int x ->
      g.cnt.(i) <- g.cnt.(i) + 1;
      g.isum.(i) <- g.isum.(i) + x;
      g.fsum.(i) <- g.fsum.(i) +. float_of_int x
  | Value.Float x ->
      g.cnt.(i) <- g.cnt.(i) + 1;
      g.nfloat.(i) <- g.nfloat.(i) + 1;
      g.fsum.(i) <- g.fsum.(i) +. x
  | Value.Bool _ | Value.String _ | Value.Date _ -> g.cnt.(i) <- g.cnt.(i) + 1

(* MIN keeps v when [compare v m < 0] ([sign] = -1), MAX when it is [> 0] *)
let extreme_value sign g i = function
  | Value.Null -> ()
  | v -> (
      match g.ext.(i) with
      | Value.Null -> g.ext.(i) <- v
      | m -> if sign * Value.compare v m > 0 then g.ext.(i) <- v)

(* Aggregate [i]'s feeder, picked once per operator.  COUNT( * ) has no
   feeder — it reads [nrows]. *)
let agg_feeder ctx layout i (f : Plan.agg_fun) : (group -> row -> unit) option
    =
  match f with
  | Plan.Count_star -> None
  | Plan.Count e ->
      let arg = compile_expr ctx layout e in
      Some (fun g r -> count_value g i (arg r))
  | Plan.Sum e | Plan.Avg e ->
      let arg = compile_expr ctx layout e in
      Some (fun g r -> sum_value g i (arg r))
  | Plan.Min e | Plan.Max e ->
      let arg = compile_expr ctx layout e in
      let sign = match f with Plan.Min _ -> -1 | _ -> 1 in
      Some (fun g r -> extreme_value sign g i (arg r))

let agg_result i (f : Plan.agg_fun) (g : group) : Value.t =
  match f with
  | Plan.Count_star -> Value.Int g.nrows
  | Plan.Count _ -> Value.Int g.cnt.(i)
  | Plan.Sum _ ->
      (* SQL returns an integer sum for integer inputs *)
      if g.cnt.(i) = 0 then Value.Null
      else if g.nfloat.(i) = 0 then Value.Int g.isum.(i)
      else Value.Float g.fsum.(i)
  | Plan.Avg _ ->
      if g.cnt.(i) = 0 then Value.Null
      else Value.Float (g.fsum.(i) /. float_of_int g.cnt.(i))
  | Plan.Min _ | Plan.Max _ -> g.ext.(i)

let exec_agg ctx ~group_by ~aggs ~output_rel ~(child : pipe) =
  let ngroup = List.length group_by in
  let out_width = ngroup + List.length aggs in
  let layout = [ (output_rel, out_width) ] in
  (* compiled once: group-key extractors, aggregate feeders *)
  let key_fns =
    Array.of_list (List.map (compile_expr ctx child.layout) group_by)
  in
  let funs = Array.of_list (List.map snd aggs) in
  let naggs = Array.length funs in
  let feeders =
    Array.of_list
      (List.filter_map Fun.id
         (List.mapi (fun i (_, f) -> agg_feeder ctx child.layout i f) aggs))
  in
  let nfeeders = Array.length feeders in
  let slots p = if Array.exists p funs then naggs else 0 in
  let sum_slots =
    slots (function Plan.Sum _ | Plan.Avg _ -> true | _ -> false)
  and ext_slots =
    slots (function Plan.Min _ | Plan.Max _ -> true | _ -> false)
  in
  let new_group () =
    {
      nrows = 0;
      cnt = Array.make naggs 0;
      isum = Array.make sum_slots 0;
      fsum = Array.make sum_slots 0.0;
      nfloat = Array.make sum_slots 0;
      ext = Array.make ext_slots Value.Null;
    }
  in
  let add_row g r =
    g.nrows <- g.nrows + 1;
    for i = 0 to nfeeders - 1 do
      (Array.unsafe_get feeders i) g r
    done
  in
  (* one output row: group key component [j] is [key j] *)
  let emit out key g =
    let r = Array.make out_width Value.Null in
    for j = 0 to ngroup - 1 do
      r.(j) <- key j
    done;
    for i = 0 to naggs - 1 do
      r.(ngroup + i) <- agg_result i funs.(i) g
    done;
    Vec.push out r
  in
  let rows =
    par_init ctx (fun segment ->
        let src = child.feed segment in
        let out = Vec.create () in
        (if ngroup = 0 then begin
           (* no GROUP BY: one group, no table.  A scalar aggregate over
              empty input still yields one row; emit it on the first
              segment only — the final aggregate runs above a Gather, so
              this is the master's row. *)
           let g = new_group () in
           iter_feed (add_row g) src;
           if g.nrows > 0 || segment = 0 then emit out (fun _ -> Value.Null) g
         end
         else begin
           (* group [e] is the key table's entry [e]: first-seen order *)
           let tbl = Keytbl.create ~width:ngroup ~init:0 64 in
           let groups = Vec.create () in
           let group e =
             if e < Vec.length groups then Vec.unsafe_get groups e
             else begin
               let g = new_group () in
               Vec.push groups g;
               g
             end
           in
           let scratch = Array.make ngroup Value.Null in
           iter_feed
             (fun r ->
               for i = 0 to ngroup - 1 do
                 scratch.(i) <- key_fns.(i) r
               done;
               add_row (group (Keytbl.intern tbl scratch)) r)
             src;
           Vec.iteri (fun e g -> emit out (Keytbl.key tbl e) g) groups
         end);
        out)
  in
  child.close ();
  { layout; rows }

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)
(* ------------------------------------------------------------------ *)

(* DML mutates shared storage, so it runs on the coordinating domain; its
   counters go to metrics shard 0. *)

(* Remove one stored occurrence of each [(segment, tuple)] image: every
   touched heap is rebuilt once, against a multiset of its deleted images.
   Returns how many stored tuples were removed. *)
let remove_tuples ctx table (images : (int * row) list) =
  let touched = Hashtbl.create 16 in
  List.iter
    (fun (seg, tuple) ->
      let key = (seg, Mpp_storage.Storage.physical_oid table tuple) in
      let dels =
        match Hashtbl.find_opt touched key with
        | Some d -> d
        | None ->
            let d = Keytbl.create ~width:(Array.length tuple) ~init:0 16 in
            Hashtbl.replace touched key d;
            d
      in
      let e = Keytbl.intern dels tuple in
      Keytbl.set dels e (Keytbl.get dels e + 1))
    images;
  let removed = ref 0 in
  Hashtbl.iter
    (fun (seg, oid) dels ->
      let keep t =
        let e = Keytbl.find dels t in
        if e >= 0 && Keytbl.get dels e > 0 then begin
          Keytbl.set dels e (Keytbl.get dels e - 1);
          incr removed;
          false
        end
        else true
      in
      let heap = Mpp_storage.Storage.scan_vec ctx.storage ~segment:seg ~oid in
      Mpp_storage.Storage.replace_heap ctx.storage ~segment:seg ~oid
        (List.filter keep (Vec.to_list heap)))
    touched;
  !removed

(* The DML target table, and the slice of a child row that is its stored
   tuple image. *)
let target_image ctx ~rel ~table_oid ~(child : result) what =
  let table = Mpp_catalog.Catalog.find_oid ctx.catalog table_oid in
  match offset_of child.layout rel with
  | Some off ->
      let width = Mpp_catalog.Table.ncols table in
      (table, fun (r : row) -> Array.sub r off width)
  | None ->
      invalid_arg (Printf.sprintf "Exec: %s target not in child output" what)

let dml_count ctx n =
  let rows = empty_rows ctx in
  Vec.push rows.(0) [| Value.Int n |];
  { layout = [ (-1, 1) ]; rows }

let exec_update ctx ~rel ~table_oid ~set_exprs ~(child : result) =
  let table, image = target_image ctx ~rel ~table_oid ~child "Update" in
  let set_fns =
    List.map (fun (col, e) -> (col, compile_expr ctx child.layout e)) set_exprs
  in
  (* Collect (segment, old tuple, new tuple) actions first so the scan
     underneath is not disturbed mid-flight. *)
  let actions = ref [] in
  Array.iteri
    (fun seg rows ->
      Vec.iter
        (fun r ->
          let old_tuple = image r in
          let new_tuple = Array.copy old_tuple in
          List.iter (fun (col, f) -> new_tuple.(col) <- f r) set_fns;
          actions := (seg, old_tuple, new_tuple) :: !actions)
        rows)
    child.rows;
  (* Route every new image before removing anything: an image outside
     every partition raises with the table unchanged. *)
  List.iter
    (fun (_, _, new_tuple) ->
      ignore (Mpp_storage.Storage.physical_oid table new_tuple))
    !actions;
  ignore
    (remove_tuples ctx table (List.map (fun (seg, t, _) -> (seg, t)) !actions));
  (* Re-insert the new images as one batch through the normal path so they
     land on the right segment and partition. *)
  Mpp_storage.Storage.load ctx.storage table
    (List.map (fun (_, _, new_tuple) -> new_tuple) !actions);
  let updated = List.length !actions in
  ctx.metrics.(0).Metrics.rows_updated <-
    ctx.metrics.(0).Metrics.rows_updated + updated;
  dml_count ctx updated

let exec_delete ctx ~rel ~table_oid ~(child : result) =
  let table, image = target_image ctx ~rel ~table_oid ~child "Delete" in
  let images = ref [] in
  Array.iteri
    (fun seg rows ->
      Vec.iter (fun r -> images := (seg, image r) :: !images) rows)
    child.rows;
  let deleted = remove_tuples ctx table !images in
  ctx.metrics.(0).Metrics.rows_deleted <-
    ctx.metrics.(0).Metrics.rows_deleted + deleted;
  dml_count ctx deleted

(* ------------------------------------------------------------------ *)
(* Motion                                                              *)
(* ------------------------------------------------------------------ *)

(* Motions cross segment boundaries — the one operator family whose work is
   inherently not per-segment — so they run on the coordinating domain and
   record into metrics shard 0. *)
let exec_motion ctx ~kind ~(child : result) =
  let n = nsegments ctx in
  let total = Array.fold_left (fun acc v -> acc + Vec.length v) 0 child.rows in
  let concat_all () = Vec.concat (Array.to_list child.rows) in
  let rows =
    match kind with
    | Plan.Gather ->
        Metrics.record_motion ctx.metrics.(0) ~rows:total;
        let all = concat_all () in
        Array.init n (fun i -> if i = 0 then all else Vec.create ())
    | Plan.Gather_one ->
        (* the child is replicated: any single copy is the full result *)
        let one = child.rows.(0) in
        Metrics.record_motion ctx.metrics.(0) ~rows:(Vec.length one);
        Array.init n (fun i -> if i = 0 then one else Vec.create ())
    | Plan.Broadcast ->
        Metrics.record_motion ctx.metrics.(0) ~rows:(total * n);
        let all = concat_all () in
        (* every segment shares the same (immutable-by-convention) batch *)
        Array.make n all
    | Plan.Redistribute cols ->
        Metrics.record_motion ctx.metrics.(0) ~rows:total;
        (* hash-key offsets resolved once *)
        let offs = Array.of_list (List.map (resolver child.layout) cols) in
        let buckets = Array.init n (fun _ -> Vec.create ()) in
        Array.iter
          (Vec.iter (fun r ->
               let seg =
                 Mpp_catalog.Distribution.segment_for_row ~nsegments:n r offs
               in
               Vec.push buckets.(seg) r))
          child.rows;
        buckets
  in
  { child with rows }

(* ------------------------------------------------------------------ *)
(* Top-level interpreter                                               *)
(* ------------------------------------------------------------------ *)

(* Plan nodes are identified by pre-order index (root = 0; a node's first
   child is its own index + 1; siblings follow the whole subtree).  The
   numbering is recomputed by {!Explain} to attach the stats back to the
   rendered tree. *)
let child_ids id plan =
  let next = ref (id + 1) in
  List.map
    (fun c ->
      let cid = !next in
      next := cid + Plan.node_count c;
      cid)
    (Plan.children plan)

let nparts_of_root ctx root_oid =
  Mpp_catalog.Table.nparts (Mpp_catalog.Catalog.find_oid ctx.catalog root_oid)

(* Operators that stream: each opens as a {!pipe} and runs inside the
   fan-out of the breaker above it.  Every other operator is a pipeline
   breaker and builds its per-segment batches. *)
let streams = function
  | Plan.Table_scan _ | Plan.Dynamic_scan _ | Plan.Filter _ | Plan.Project _
  | Plan.Sequence _ | Plan.Append _ | Plan.Hash_join _ | Plan.Nl_join _
  | Plan.Runtime_filter _ ->
      true
  | Plan.Partition_selector _ | Plan.Agg _ | Plan.Sort _ | Plan.Limit _
  | Plan.Motion _ | Plan.Update _ | Plan.Delete _ | Plan.Insert _
  | Plan.Runtime_filter_build _ ->
      false

(* One execution of node [n]: the rows it emitted on each segment, and its
   partition and Motion counts.  Returns the rows emitted in total. *)
let record_node ctx (n : Node_stats.node) (plan : Plan.t) seg_rows =
  let emitted = Array.fold_left ( + ) 0 seg_rows in
  n.Node_stats.rows <- n.Node_stats.rows + emitted;
  let nseg_arr = Array.length n.Node_stats.seg_rows in
  Array.iteri
    (fun s v ->
      if s < nseg_arr then
        n.Node_stats.seg_rows.(s) <- n.Node_stats.seg_rows.(s) + v)
    seg_rows;
  (match plan with
  | Plan.Dynamic_scan { part_scan_id; root_oid; _ } ->
      n.Node_stats.parts_scanned <-
        snd (Channel.counts ctx.channel ~part_scan_id);
      n.Node_stats.parts_total <- nparts_of_root ctx root_oid
  | Plan.Partition_selector { part_scan_id; root_oid; _ } ->
      n.Node_stats.parts_selected <-
        fst (Channel.counts ctx.channel ~part_scan_id);
      n.Node_stats.parts_total <- nparts_of_root ctx root_oid
  | Plan.Table_scan { table_oid; guard; _ } ->
      (* a per-leaf scan (Planner expansion) reads its one partition; a
         guarded one only when its leaf was pushed on some segment *)
      let root, parts, pos = leaf_position ctx table_oid in
      if guard <> None || root <> table_oid then begin
        let pushed part_scan_id =
          List.exists
            (fun segment -> Channel.mem ctx.channel ~segment ~part_scan_id pos)
            (List.init (nsegments ctx) Fun.id)
        in
        n.Node_stats.parts_scanned <-
          Bool.to_int (Option.fold ~none:true ~some:pushed guard);
        n.Node_stats.parts_total <- Bitset.length parts
      end
  | Plan.Motion _ ->
      (* every motion kind emits exactly the rows it moved: Gather and
         Redistribute forward each row once, Broadcast emits one copy
         per segment, Gather_one reads a single replica *)
      n.Node_stats.tuples_moved <- n.Node_stats.tuples_moved + emitted
  | _ -> ());
  emitted

(* Node [id]'s coordinator-side work [f], profiled: per-segment fan-outs
   inside [f] are charged to [id], its inclusive time and one invocation go
   to its record, and [finish rows] emits its trace event over the same
   span ([rows]: [None] without statistics). *)
let profiled ctx id plan f =
  let traced = Trace.enabled ctx.trace in
  let n = Option.map (fun st -> Node_stats.node st id) ctx.stats in
  let prev_node = ctx.cur_node and prev_label = ctx.cur_label in
  ctx.cur_node <- id;
  if traced then ctx.cur_label <- Plan.describe plan;
  let tr0 = if traced then Trace.now ctx.trace else 0.0 in
  let t0 = match ctx.stats with Some st -> Node_stats.time st | None -> 0.0 in
  let x =
    Fun.protect
      ~finally:(fun () ->
        ctx.cur_node <- prev_node;
        ctx.cur_label <- prev_label)
      f
  in
  (match (ctx.stats, n) with
  | Some st, Some n ->
      n.Node_stats.time_s <- n.Node_stats.time_s +. (Node_stats.time st -. t0);
      n.Node_stats.invocations <- n.Node_stats.invocations + 1
  | _ -> ());
  let tr1 = if traced then Trace.now ctx.trace else 0.0 in
  let finish rows =
    if traced then
      Trace.emit ctx.trace ~tid:coordinator_tid ~cat:"node"
        ~name:(Plan.describe plan)
        ~args:
          (("node", Mpp_obs.Json.Int id)
          ::
          (match rows with
          | Some r -> [ ("rows", Mpp_obs.Json.Int r) ]
          | None -> []))
        ~start:tr0 ~stop:tr1 ()
  in
  (x, n, finish)

let unprofiled ctx =
  Option.is_none ctx.stats && not (Trace.enabled ctx.trace)

(* A pipeline breaker's per-segment batches. *)
let rec exec_at ctx id (plan : Plan.t) : result =
  if unprofiled ctx then exec_node ctx id plan
  else begin
    let r, n, finish = profiled ctx id plan (fun () -> exec_node ctx id plan) in
    finish
      (Option.map
         (fun n -> record_node ctx n plan (Array.map Vec.length r.rows))
         n);
    r
  end

(* Open node [id] as a pipeline stage; a breaker's batches stream on.  A
   streamed node's time is its opening (a join's includes its build); the
   time its rows take is its sink's.  Its rows are counted as they pass,
   per segment (slot [s] is written only by segment [s]'s task), and
   recorded once the sink's fan-out is over. *)
and stream ?rf ctx id (plan : Plan.t) : pipe =
  if not (streams plan) then of_result (exec_at ctx id plan)
  else if unprofiled ctx then stream_node ?rf ctx id plan
  else
    let p, n, finish =
      profiled ctx id plan (fun () -> stream_node ?rf ctx id plan)
    in
    match n with
    | None ->
        finish None;
        p
    | Some n ->
        let counts = Array.make (nsegments ctx) 0 in
        {
          p with
          feed =
            (fun s ->
              match p.feed s with
              | Batches vs as b ->
                  List.iter
                    (fun v -> counts.(s) <- counts.(s) + Vec.length v)
                    vs;
                  b
              | Push f ->
                  Push
                    (fun k ->
                      f (fun r ->
                          counts.(s) <- counts.(s) + 1;
                          k r)));
          close =
            (fun () ->
              p.close ();
              finish (Some (record_node ctx n plan counts)));
        }

(* Node [id]'s per-segment batches, whether it streams or not. *)
and input ctx id (plan : Plan.t) : result =
  if streams plan then materialize ctx (stream ctx id plan)
  else exec_at ctx id plan

and stream_node ?rf ctx id (plan : Plan.t) : pipe =
  let ids = child_ids id plan in
  let kid ?rf i c = stream ?rf ctx (List.nth ids i) c in
  let join ~hash ~kind ~pred left right =
    let l = kid 0 left in
    let keys, residual =
      if hash then equi_keys ~left_rels:(List.map fst l.layout) pred
      else ([], [ pred ])
    in
    let ixs = join_build ctx ~keys l in
    let r = kid 1 right in
    stream_join ctx ~kind ~keys ~residual ~left_layout:l.layout ixs r
  in
  match plan with
  | Plan.Table_scan { rel; table_oid; filter; guard } ->
      stream_table_scan ctx ?rf ~rel ~table_oid ~filter ~guard ()
  | Plan.Dynamic_scan { rel; part_scan_id; root_oid; filter; _ } ->
      stream_dynamic_scan ctx ?rf ~rel ~part_scan_id ~root_oid ~filter ()
  | Plan.Sequence children ->
      (* every child but the last runs to completion first, for its side
         effects (a selector's pushes) *)
      let rec go i = function
        | [] -> of_result { layout = []; rows = empty_rows ctx }
        | [ last ] -> kid i last
        | c :: rest ->
            ignore (input ctx (List.nth ids i) c);
            go (i + 1) rest
      in
      go 0 children
  | Plan.Filter { pred; child } ->
      let c = kid 0 child in
      let p = compile_filter ctx c.layout pred in
      filter_stage c (fun _ -> p)
  | Plan.Project { exprs; child } ->
      let c = kid 0 child in
      let fns =
        Array.of_list
          (List.map (fun (_, e) -> compile_expr ctx c.layout e) exprs)
      in
      let n = Array.length fns in
      {
        layout = [ (-1, n) ];
        transient = true;
        close = c.close;
        feed =
          (fun s ->
            let src = c.feed s and out = Array.make n Value.Null in
            Push
              (fun k ->
                iter_feed
                  (fun r ->
                    for i = 0 to n - 1 do
                      out.(i) <- fns.(i) r
                    done;
                    k out)
                  src));
      }
  | Plan.Hash_join { kind; pred; left; right } ->
      join ~hash:true ~kind ~pred left right
  | Plan.Nl_join { kind; pred; left; right } ->
      join ~hash:false ~kind ~pred left right
  | Plan.Runtime_filter { rf_id; keys; at_motion; child } -> (
      (* resolved on the coordinating domain, after the build subtree's
         parallel sections completed (the consumer sits on the probe
         side, which opens strictly after the build side ran) *)
      let merged =
        if ctx.runtime_filters then Channel.merged_filter ctx.channel ~rf_id
        else None
      in
      match merged with
      | None -> kid 0 child
      | Some mf -> (
          let scan_rf layout rf_allowed =
            { rf_make = rf_make_test ctx ~at_motion mf layout keys; rf_allowed }
          in
          match child with
          | Plan.Table_scan { rel; table_oid; _ } ->
              (* the scan runs the test in its row loop *)
              let root, _, _ = leaf_position ctx table_oid in
              let width = table_width ctx root in
              kid ~rf:(scan_rf [ (rel, width) ] None) 0 child
          | Plan.Dynamic_scan { rel; root_oid; _ } ->
              (* and intersects the filter's min-max summary with the
                 partition index to drop whole leaves — partition-level
                 elimination, so it honors the selection-disabled ablation
                 like the selectors do *)
              let allowed =
                if ctx.selection_enabled then
                  rf_allowed_leaves ctx ~root_oid ~rel keys mf
                else None
              in
              kid ~rf:(scan_rf [ (rel, table_width ctx root_oid) ] allowed) 0
                child
          | _ ->
              let c = kid 0 child in
              filter_stage c (rf_make_test ctx ~at_motion mf c.layout keys)))
  | Plan.Append children -> (
      match List.mapi kid children with
      | [] -> of_result { layout = []; rows = empty_rows ctx }
      | first :: _ as cs ->
          {
            layout = first.layout;
            transient = List.exists (fun c -> c.transient) cs;
            feed =
              (fun s ->
                (* children's batches stay batches: a breaker above
                   concatenates the partitions of a Planner expansion once *)
                let fs = List.map (fun c -> c.feed s) cs in
                let batches = function Batches vs -> vs | Push _ -> [] in
                if List.for_all (function Batches _ -> true | _ -> false) fs
                then Batches (List.concat_map batches fs)
                else Push (fun k -> List.iter (iter_feed k) fs));
            close = (fun () -> List.iter (fun c -> c.close ()) cs);
          })
  | Plan.Partition_selector _ | Plan.Agg _ | Plan.Sort _ | Plan.Limit _
  | Plan.Motion _ | Plan.Update _ | Plan.Delete _ | Plan.Insert _
  | Plan.Runtime_filter_build _ ->
      invalid_arg "Exec.stream_node: a pipeline breaker"

and exec_node ctx id (plan : Plan.t) : result =
  let ids = child_ids id plan in
  let kid i c = input ctx (List.nth ids i) c in
  match plan with
  | Plan.Partition_selector
      { part_scan_id; root_oid; keys; predicates; child = None } ->
      let selectors = compile_selector ctx ~keys ~predicates in
      run_static_selection ctx ~part_scan_id ~root_oid selectors;
      { layout = []; rows = empty_rows ctx }
  | Plan.Partition_selector
      { part_scan_id; root_oid; keys; predicates; child = Some c } ->
      let child = kid 0 c in
      let selectors = compile_selector ctx ~keys ~predicates in
      run_streaming_selection ctx ~part_scan_id ~root_oid ~keys selectors child;
      child
  | Plan.Agg { group_by; aggs; child; output_rel } ->
      (* consumes its input as it streams: no batch below an aggregate *)
      exec_agg ctx ~group_by ~aggs ~output_rel
        ~child:(stream ctx (List.hd ids) child)
  | Plan.Sort { keys; child } ->
      let r = kid 0 child in
      let fns = List.map (compile_expr ctx r.layout) keys in
      let cmp a b =
        let rec go = function
          | [] -> 0
          | f :: rest ->
              let c = Value.compare (f a) (f b) in
              if c <> 0 then c else go rest
        in
        go fns
      in
      { r with rows = par_init ctx (fun seg -> Vec.sorted cmp r.rows.(seg)) }
  | Plan.Limit { rows = n; child } ->
      let r = kid 0 child in
      { r with rows = Array.map (Vec.take n) r.rows }
  | Plan.Motion { kind; child } ->
      (* credit Motion sends avoided by pre-Motion runtime filtering: rows a
         [Runtime_filter ~at_motion:true] below this Motion dropped while
         the subtree executed would each have cost one send here (or
         [nsegments] sends for a Broadcast).  Each drop is claimed by its
         nearest enclosing Motion — inner Motions finish (and claim) before
         this one, so whatever is still unclaimed was dropped directly
         below this send and is credited exactly once. *)
      let filtered_below () =
        Array.fold_left
          (fun acc m -> acc + m.Metrics.rows_filtered_motion)
          0 ctx.metrics
      in
      let r = kid 0 child in
      let delta = filtered_below () - ctx.rf_motion_claimed in
      ctx.rf_motion_claimed <- ctx.rf_motion_claimed + delta;
      let factor =
        match kind with
        | Plan.Broadcast -> nsegments ctx
        | Plan.Redistribute _ | Plan.Gather -> 1
        | Plan.Gather_one -> 0
      in
      if delta > 0 && factor > 0 then begin
        let m = ctx.metrics.(0) in
        m.Metrics.motion_rows_saved <-
          m.Metrics.motion_rows_saved + (delta * factor)
      end;
      exec_motion ctx ~kind ~child:r
  | Plan.Runtime_filter_build { rf_id; keys; rows_est; child } ->
      let r = kid 0 child in
      if ctx.runtime_filters then
        let check_against = if ctx.verify then Some child else None in
        exec_rf_build ctx ~rf_id ~keys ~rows_est ?check_against r
      else r
  | Plan.Update { rel; table_oid; set_exprs; child } ->
      let r = kid 0 child in
      exec_update ctx ~rel ~table_oid ~set_exprs ~child:r
  | Plan.Delete { rel; table_oid; child } ->
      let r = kid 0 child in
      exec_delete ctx ~rel ~table_oid ~child:r
  | Plan.Insert { table_oid; rows } ->
      let table = Mpp_catalog.Catalog.find_oid ctx.catalog table_oid in
      (* VALUES rows reference no columns; compile against the empty layout
         (parameters are bound, stray columns raise as before) *)
      Mpp_storage.Storage.load ctx.storage table
        (List.map
           (fun r ->
             Array.of_list (List.map (fun e -> compile_expr ctx [] e [||]) r))
           rows);
      dml_count ctx (List.length rows)
  | Plan.Table_scan _ | Plan.Dynamic_scan _ | Plan.Filter _ | Plan.Project _
  | Plan.Sequence _ | Plan.Append _ | Plan.Hash_join _ | Plan.Nl_join _
  | Plan.Runtime_filter _ ->
      invalid_arg "Exec.exec_node: a streamed operator"

(** Evaluate a plan with this context; the root gets pre-order index 0.
    The root's rows are the query result, one batch per segment. *)
let exec ctx (plan : Plan.t) : result = input ctx 0 plan

(** Execute [plan] and gather all segments' output rows on the master. *)
let run ?(params = [||]) ?(selection_enabled = true) ?(verify = false)
    ?(runtime_filters = true) ?stats ?trace ?domains ?pool ~catalog ~storage
    plan =
  let ctx =
    create_ctx ~params ~selection_enabled ~verify ~runtime_filters ?stats
      ?trace ?domains ?pool ~catalog ~storage ()
  in
  let r = exec ctx plan in
  let rows =
    List.concat (Array.to_list (Array.map Vec.to_list r.rows))
  in
  (rows, metrics ctx)

(** Execute [plan] collecting per-node EXPLAIN ANALYZE statistics. *)
let run_analyze ?(params = [||]) ?(selection_enabled = true) ?(verify = false)
    ?(runtime_filters = true) ?trace ?domains ~catalog ~storage plan =
  let stats = Node_stats.create () in
  let rows, metrics =
    run ~params ~selection_enabled ~verify ~runtime_filters ~stats ?trace
      ?domains ~catalog ~storage plan
  in
  (rows, metrics, stats)
