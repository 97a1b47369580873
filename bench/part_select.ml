(** Partition-count scaling of selection (paper Fig. 14 shape). *)

open Harness

(* The index layer's claim, measured directly: selection cost must stay
   near-flat as the partition count P grows into the tens of thousands,
   where the legacy implementation (a scan of every leaf, plus an O(P)
   sibling rescan per default-arm check) grows linearly.  Five cases per P:

   - static:      a range restriction selecting ~P/8 leaves — the leaf
                  selector of Figure 5(a-c), once per query;
   - point:       a single-value restriction — one leaf survives;
   - streaming:   point restrictions cycling over distinct join keys — one
                  select per join key on the DPE path (Figure 5(d));
   - streaming-range: a half-line per join key ([< <= > >=] in turn), the
                  streaming selector's range path: the indexed side is
                  [Index.add_range] into a cleared bitset, as the selector
                  runs it per row;
   - default-arm: a range restriction on a layout with a Default partition,
                  forcing the covered-set check on every select.

   Each case times the legacy oracle against the indexed implementation
   (same restrictions, ns/select) and asserts they agree oid-for-oid
   before timing.  [~smoke] runs tiny P values and checks only the JSON
   schema, so it is safe under [dune runtest]. *)

let make_part ?(default_arm = false) ~nparts () =
  let next = ref 0 in
  let alloc_oid () =
    incr next;
    !next
  in
  let constrs =
    if default_arm then
      Part.int_ranges ~start:0 ~width:100 ~count:(nparts - 1)
      @ [ Part.Default ]
    else Part.int_ranges ~start:0 ~width:100 ~count:nparts
  in
  Part.single_level ~alloc_oid ~key_index:0 ~key_name:"b" ~scheme:Part.Range
    ~table_name:"t" constrs

let run ~smoke =
  header
    (if smoke then "Bench: partition-selection scaling (smoke mode, tiny P)"
     else "Bench: partition-selection scaling, legacy scan vs index");
  let min_time = if smoke then 0.002 else 0.05 in
  let ns_per_op f = ns_per_op ~min_time f in
  let ps = if smoke then [ 16; 64 ] else [ 16; 128; 1024; 8192; 32768 ] in
  Printf.printf "%-8s %-16s %14s %14s %10s\n" "P" "case" "legacy ns"
    "indexed ns" "speedup";
  let static_speedup_8k = ref None in
  let points =
    List.map
      (fun nparts ->
        let p = make_part ~nparts () in
        let pd = make_part ~default_arm:true ~nparts () in
        let build_s, _ = time_run (fun () -> Part.Index.build p) in
        let domain = nparts * 100 in
        let rset i = Interval.Set.of_interval_opt i in
        (* ~P/8 surviving leaves, mid-domain *)
        let static_r =
          let iv =
            Interval.closed_open
              (Value.Int (domain / 2))
              (Value.Int ((domain / 2) + (domain / 8)))
          in
          [| Some (rset iv) |]
        in
        let point_r =
          [| Some (Interval.Set.point (Value.Int ((domain / 2) + 50))) |]
        in
        (* distinct join-key tuples of the streaming-DPE path: one select
           per key, keys cycling round-robin *)
        let nkeys = if smoke then 16 else 256 in
        let rng = W.Rng.create () in
        let stream_rs =
          Array.init nkeys (fun _ ->
              [| Some (Interval.Set.point (Value.Int (W.Rng.int rng domain)))
              |])
        in
        let stream_i = ref 0 in
        let next_stream () =
          let r = stream_rs.(!stream_i) in
          stream_i := (!stream_i + 1) mod nkeys;
          r
        in
        (* reaches into the last range leaves and the default arm *)
        let default_r =
          [| Some (rset (Interval.closed_open
                           (Value.Int (domain - 250))
                           (Value.Int (domain + 250))))
          |]
        in
        let report name ~legacy ~indexed =
          let speedup = legacy /. indexed in
          Printf.printf "%-8d %-16s %14.0f %14.0f %9.1fx\n" nparts name legacy
            indexed speedup;
          if name = "static" && nparts = 8192 then
            static_speedup_8k := Some speedup;
          ( name,
            Json.Obj
              [ ("legacy_ns", Json.Float legacy);
                ("indexed_ns", Json.Float indexed);
                ("speedup", Json.Float speedup) ] )
        in
        let case name part restriction =
          (match restriction with
          | Some r ->
              (* the oracle contract, checked before timing *)
              assert (Part.select_oids part r = Part.select_oids_legacy part r)
          | None ->
              Array.iter
                (fun r ->
                  assert (
                    Part.select_oids part r
                    = Part.select_oids_legacy part r))
                stream_rs);
          let arg () =
            match restriction with Some r -> r | None -> next_stream ()
          in
          report name
            ~legacy:(ns_per_op (fun () -> Part.select_oids_legacy part (arg ())))
            ~indexed:(ns_per_op (fun () -> Part.select_oids part (arg ())))
        in
        let range_case () =
          let ops = [| Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge |] in
          let bounds =
            Array.init nkeys (fun i ->
                (ops.(i mod 4), Value.Int (W.Rng.int rng domain)))
          in
          let half_line (op, v) =
            [| Some
                 (Interval.Set.singleton
                    (match op with
                    | Expr.Lt -> Interval.less_than v
                    | Expr.Le -> Interval.at_most v
                    | Expr.Gt -> Interval.greater_than v
                    | _ -> Interval.at_least v)) |]
          in
          let rs = Array.map half_line bounds in
          let into = Mpp_catalog.Bitset.create nparts in
          let add_range i =
            let op, v = bounds.(i) in
            Mpp_catalog.Bitset.clear into;
            Part.Index.add_range p.Part.index ~level:0 op v into
          in
          Array.iteri
            (fun i r ->
              add_range i;
              assert (
                List.map
                  (fun j -> p.Part.leaves.(j).Part.leaf_oid)
                  (Mpp_catalog.Bitset.to_list into)
                = Part.select_oids_legacy p r))
            rs;
          let i = ref 0 in
          let next () =
            let j = !i in
            i := (j + 1) mod nkeys;
            j
          in
          report "streaming-range"
            ~legacy:(ns_per_op (fun () -> Part.select_oids_legacy p rs.(next ())))
            ~indexed:(ns_per_op (fun () -> add_range (next ())))
        in
        (* force left-to-right evaluation so the table prints in order *)
        let c_static = case "static" p (Some static_r) in
        let c_point = case "point" p (Some point_r) in
        let c_stream = case "streaming" p None in
        let c_range = range_case () in
        let c_default = case "default-arm" pd (Some default_r) in
        let cases = [ c_static; c_point; c_stream; c_range; c_default ] in
        Json.Obj
          [ ("nparts", Json.Int nparts);
            ("index_build_ms", Json.Float (build_s *. 1000.0));
            ("cases", Json.Obj cases) ])
      ps
  in
  let section =
    Json.Obj
      ([ ("smoke", Json.Bool smoke); ("points", Json.List points) ]
      @
      match !static_speedup_8k with
      | Some s -> [ ("static_speedup_at_8k", Json.Float s) ]
      | None -> [])
  in
  record "part_select" section;
  (match !static_speedup_8k with
  | Some s ->
      Printf.printf
        "\nstatic case at P=8192: indexed selection %.1fx faster than the \
         legacy scan (target: >= 10x)\n"
        s
  | None -> ());
  if smoke then begin
    let field = field ~what:"part_select" in
    (match field section "points" with
    | Json.List (_ :: _ as pts) ->
        List.iter
          (fun pt ->
            assert (measured (field pt "index_build_ms"));
            match field pt "cases" with
            | Json.Obj cases ->
                assert (
                  List.map fst cases
                  = [ "static"; "point"; "streaming"; "streaming-range";
                      "default-arm" ]);
                List.iter
                  (fun (_, c) ->
                    assert (measured (field c "legacy_ns"));
                    assert (measured (field c "indexed_ns"));
                    assert (measured (field c "speedup")))
                  cases
            | _ -> failwith "part_select smoke: cases not an object")
          pts
    | _ -> failwith "part_select smoke: points missing or empty");
    print_endline
      "smoke OK: part_select schema valid; legacy and indexed selection both \
       measured and agree oid-for-oid"
  end
