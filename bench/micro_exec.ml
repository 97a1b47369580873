(** Executor hot path: compiled expressions and the domain pool. *)

open Harness

(* The two claims behind the executor overhaul, measured directly:

   1. scan-filter: evaluating a predicate through the old interpreter
      contract (a per-row [Expr.env] whose [col] callback performs the
      linear layout search) vs the compiled [Expr.compile_pred] closure
      (offsets resolved once, per-row work is array loads);
   2. a hash join on a multi-segment cluster executed serially vs through
      the domain pool ([?domains]);
   3. the key-table kernels on one segment, serially, in ns per input
      row: grouped aggregation on 1 and 3 int keys, and a two-key hash
      join.

   [~smoke] runs the same code on tiny inputs and asserts only that both
   sides were measured and the JSON section has the right shape — no
   performance thresholds, so it is safe under [dune runtest] on any
   machine.  The honest parallel caveat: wall-clock speedup from domains
   requires actual cores; the [cores] field records what this host had. *)
let run ~smoke =
  header
    (if smoke then "Micro: executor hot path (smoke mode, tiny inputs)"
     else "Micro: executor hot path (compiled expressions, domain pool)");
  let cores = Domain.recommended_domain_count () in
  let reps = if smoke then 3 else 7 in
  let best_of f = minimum (samples reps f) in
  (* ---- 1. scan-filter: interpreted env-per-row vs compiled ---- *)
  let nrows = if smoke then 2_000 else 400_000 in
  let rng = W.Rng.create () in
  let rows =
    Array.init nrows (fun i ->
        [| Value.Int i; Value.Int (W.Rng.int rng 100);
           Value.Int (W.Rng.int rng 1000) |])
  in
  let layout = [ (0, 3) ] in
  let cref index name = Colref.make ~rel:0 ~index ~name ~dtype:Value.Tint in
  let a = cref 0 "a" and b = cref 1 "b" and c = cref 2 "c" in
  let pred =
    Expr.And
      [ Expr.lt (Expr.col b) (Expr.int 50);
        Expr.Or
          [ Expr.ge (Expr.col c) (Expr.int 100);
            Expr.eq (Expr.col a) (Expr.int 0) ] ]
  in
  let offset_of rel =
    let rec go off = function
      | [] -> invalid_arg "micro_exec: rel not in layout"
      | (r, w) :: rest -> if r = rel then off else go (off + w) rest
    in
    go 0 layout
  in
  (* the pre-overhaul contract: one env record per row, layout search per
     column reference *)
  let env_of row =
    { Expr.col =
        (fun (cr : Colref.t) -> row.(offset_of cr.Colref.rel + cr.Colref.index));
      param = (fun _ -> Value.Null) }
  in
  let interpret () =
    let n = ref 0 in
    Array.iter (fun row -> if Expr.eval_pred (env_of row) pred then incr n) rows;
    !n
  in
  let compiled =
    Expr.compile_pred
      ~resolve:(fun cr -> offset_of cr.Colref.rel + cr.Colref.index)
      ~params:[||] pred
  in
  let run_compiled () =
    let n = ref 0 in
    Array.iter (fun row -> if compiled row then incr n) rows;
    !n
  in
  let n_interp = interpret () and n_comp = run_compiled () in
  assert (n_interp = n_comp);
  let t_interp = best_of interpret in
  let t_comp = best_of run_compiled in
  let ns_per_rows n t = 1e9 *. t /. float_of_int n in
  let ns_per = ns_per_rows nrows in
  let filter_speedup = t_interp /. t_comp in
  Printf.printf
    "scan-filter (%d rows, %d selected):\n\
    \  interpreted  %8.1f ns/row\n\
    \  compiled     %8.1f ns/row   (%.1fx)\n"
    nrows n_comp (ns_per t_interp) (ns_per t_comp) filter_speedup;
  (* ---- 2. serial vs domain-pool hash join on 8 segments ---- *)
  let nseg = 8 and domains = 4 in
  let catalog = Cat.create () in
  let dim =
    Cat.add_table catalog ~name:"dim"
      ~columns:[ ("k", Value.Tint); ("s", Value.Tstring) ]
      ~distribution:Dist.Replicated ()
  in
  let fact =
    Cat.add_table catalog ~name:"fact"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let storage = Storage.create ~nsegments:nseg in
  let ndim = if smoke then 50 else 1_000 in
  let nfact = if smoke then 2_000 else 200_000 in
  Storage.load storage dim
    (List.init ndim (fun k ->
         [| Value.Int k; Value.String (if k mod 2 = 0 then "even" else "odd") |]));
  Storage.load storage fact
    (List.init nfact (fun i -> [| Value.Int i; Value.Int (W.Rng.int rng ndim) |]));
  let dim_k = Colref.make ~rel:0 ~index:0 ~name:"k" ~dtype:Value.Tint in
  let fact_b = Colref.make ~rel:1 ~index:1 ~name:"b" ~dtype:Value.Tint in
  let join =
    Plan.motion Plan.Gather
      (Plan.hash_join ~kind:Plan.Inner
         ~pred:(Expr.eq (Expr.col dim_k) (Expr.col fact_b))
         (Plan.table_scan ~rel:0 dim.Table.oid)
         (Plan.table_scan ~rel:1 fact.Table.oid))
  in
  let run_with d =
    fst (Mpp_exec.Exec.run ~domains:d ~catalog ~storage join)
  in
  let serial_rows = run_with 1 and parallel_rows = run_with domains in
  assert (List.length serial_rows = List.length parallel_rows);
  let t_serial = best_of (fun () -> run_with 1) in
  let t_parallel = best_of (fun () -> run_with domains) in
  let join_speedup = t_serial /. t_parallel in
  Printf.printf
    "hash join (%d segments, %d fact rows, %d cores on this host):\n\
    \  serial       %8.2f ms\n\
    \  %d domains    %8.2f ms   (%.2fx)\n"
    nseg nfact cores (t_serial *. 1000.0) domains (t_parallel *. 1000.0)
    join_speedup;
  (* ---- 3. key-table kernels: grouped aggregation, two-key join ---- *)
  (* one segment, serial: the per-row cost of the kernel itself *)
  let kcatalog = Cat.create () in
  let kstorage = Storage.create ~nsegments:1 in
  let int_cols names = List.map (fun n -> (n, Value.Tint)) names in
  let grp =
    Cat.add_table kcatalog ~name:"grp"
      ~columns:(int_cols [ "g1"; "g2"; "g3"; "v" ])
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let nkrows = if smoke then 2_000 else 200_000 in
  Storage.load kstorage grp
    (List.init nkrows (fun _ ->
         [| Value.Int (W.Rng.int rng 100); Value.Int (W.Rng.int rng 4);
            Value.Int (W.Rng.int rng 3); Value.Int (W.Rng.int rng 1000) |]));
  let kcol rel i name =
    Expr.col (Colref.make ~rel ~index:i ~name ~dtype:Value.Tint)
  in
  let gcol = kcol 0 in
  let agg_plan ngroup =
    Plan.agg
      ~group_by:(List.filteri (fun i _ -> i < ngroup)
                   [ gcol 0 "g1"; gcol 1 "g2"; gcol 2 "g3" ])
      ~aggs:
        [ ("n", Plan.Count_star); ("s", Plan.Sum (gcol 3 "v"));
          ("m", Plan.Max (gcol 3 "v")) ]
      (Plan.table_scan ~rel:0 grp.Table.oid)
  in
  let kernel_ns plan =
    let run () =
      fst
        (Mpp_exec.Exec.run ~domains:1 ~catalog:kcatalog ~storage:kstorage plan)
    in
    (ns_per_rows nkrows (best_of run), List.length (run ()))
  in
  let agg1_ns, agg1_groups = kernel_ns (agg_plan 1) in
  let agg3_ns, agg3_groups = kernel_ns (agg_plan 3) in
  let dim2 =
    Cat.add_table kcatalog ~name:"dim2"
      ~columns:(int_cols [ "k1"; "k2"; "s" ])
      ~distribution:Dist.Replicated ()
  in
  Storage.load kstorage dim2
    (List.concat
       (List.init 100 (fun k1 ->
            List.init 4 (fun k2 ->
                [| Value.Int k1; Value.Int k2; Value.Int (k1 + k2) |]))));
  let join2 =
    Plan.hash_join ~kind:Plan.Inner
      ~pred:
        (Expr.And
           [ Expr.eq (kcol 1 0 "k1") (kcol 0 0 "g1");
             Expr.eq (kcol 1 1 "k2") (kcol 0 1 "g2") ])
      (Plan.table_scan ~rel:1 dim2.Table.oid)
      (Plan.table_scan ~rel:0 grp.Table.oid)
  in
  let join2_ns, join2_rows = kernel_ns join2 in
  Printf.printf
    "key-table kernels (%d rows, 1 segment, serial):\n\
    \  group by 1 key   %8.1f ns/row   (%d groups)\n\
    \  group by 3 keys  %8.1f ns/row   (%d groups)\n\
    \  2-key hash join  %8.1f ns/row   (%d rows out)\n"
    nkrows agg1_ns agg1_groups agg3_ns agg3_groups join2_ns join2_rows;
  let section =
    Json.Obj
      [ ("cores", Json.Int cores);
        ("smoke", Json.Bool smoke);
        ("scan_filter",
         Json.Obj
           [ ("rows", Json.Int nrows);
             ("selected", Json.Int n_comp);
             ("interpreted_ns_per_row", Json.Float (ns_per t_interp));
             ("compiled_ns_per_row", Json.Float (ns_per t_comp));
             ("speedup", Json.Float filter_speedup) ]);
        ("parallel_join",
         Json.Obj
           [ ("nsegments", Json.Int nseg);
             ("fact_rows", Json.Int nfact);
             ("serial_ms", Json.Float (t_serial *. 1000.0));
             ("parallel_ms", Json.Float (t_parallel *. 1000.0));
             ("domains", Json.Int domains);
             ("speedup", Json.Float join_speedup) ]);
        ("key_kernels",
         Json.Obj
           [ ("rows", Json.Int nkrows);
             ("agg_1key_ns_per_row", Json.Float agg1_ns);
             ("agg_3key_ns_per_row", Json.Float agg3_ns);
             ("join_2key_ns_per_row", Json.Float join2_ns) ]) ]
  in
  record "micro_exec" section;
  if smoke then begin
    (* schema assertions only — values must exist and be measurements, no
       performance thresholds *)
    let field = field ~what:"micro_exec" in
    let sf = field section "scan_filter" and pj = field section "parallel_join" in
    assert (measured (field sf "interpreted_ns_per_row"));
    assert (measured (field sf "compiled_ns_per_row"));
    assert (measured (field sf "speedup"));
    assert (measured (field pj "serial_ms"));
    assert (measured (field pj "parallel_ms"));
    let kk = field section "key_kernels" in
    assert (measured (field kk "agg_1key_ns_per_row"));
    assert (measured (field kk "agg_3key_ns_per_row"));
    assert (measured (field kk "join_2key_ns_per_row"));
    assert (match field section "cores" with Json.Int n -> n >= 1 | _ -> false);
    print_endline
      "smoke OK: micro_exec schema valid; interpreted and compiled paths both \
       measured"
  end
