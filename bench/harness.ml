(** What every experiment shares: module aliases, the BENCH_RESULTS.json
    record, the timers, the smoke-mode schema helpers and the fixtures
    more than one experiment reads. *)

include Mpp_expr
module Plan = Mpp_plan.Plan
module Cat = Mpp_catalog.Catalog
module Table = Mpp_catalog.Table
module Part = Mpp_catalog.Partition
module Dist = Mpp_catalog.Distribution
module Storage = Mpp_storage.Storage
module W = Mpp_workload
module Json = Mpp_obs.Json
module Obs = Mpp_obs.Obs

(* A large minor heap and a lazy major GC keep collector scheduling from
   drowning the small per-partition overheads Table 2 measures. *)
let () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 24; space_overhead = 400 }

let line = String.make 72 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* Structured results: every experiment records a JSON section under its
   name; whatever ran is written to BENCH_RESULTS.json on exit. *)
let results : (string * Json.t) list ref = ref []
let record name json = results := !results @ [ (name, json) ]

(* Sections of a previous run that this run did not re-measure; re-running
   one experiment updates its section and keeps the rest. *)
let previous_results () =
  if not (Sys.file_exists "BENCH_RESULTS.json") then []
  else
    let doc =
      try
        let ic = open_in_bin "BENCH_RESULTS.json" in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            Json.parse_opt (really_input_string ic (in_channel_length ic)))
      with _ -> None
    in
    match doc with
    | Some (Json.Obj fields) -> (
        match List.assoc_opt "experiments" fields with
        | Some (Json.Obj exps) -> exps
        | _ -> [])
    | _ -> []

let write_results () =
  if !results <> [] then begin
    let kept =
      List.filter
        (fun (k, _) -> not (List.mem_assoc k !results))
        (previous_results ())
    in
    let json =
      Json.Obj
        [ ("schema", Json.String "mpp-parts-bench/1");
          ("experiments", Json.Obj (kept @ !results)) ]
    in
    Json.to_file "BENCH_RESULTS.json" json;
    Printf.printf "\nresults written to BENCH_RESULTS.json\n"
  end

(* Smoke-mode schema checks: the named field of a JSON section (failing
   with the experiment's name when it is missing) and whether a value is
   a positive, finite measurement. *)
let field ~what obj name =
  match obj with
  | Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> failwith (what ^ " smoke: missing field " ^ name))
  | _ -> failwith (what ^ " smoke: section is not an object")

let measured = function
  | Json.Float f -> f > 0.0 && Float.is_finite f
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Timers: every experiment times through these                         *)
(* ------------------------------------------------------------------ *)

let median l =
  let s = List.sort Float.compare l in
  List.nth s (List.length s / 2)

(* The interquartile range: the spread of the middle half, by nearest
   rank ({!median}'s rule at a quarter and three quarters); 0 for one
   sample. *)
let iqr l =
  let s = Array.of_list (List.sort Float.compare l) in
  let n = Array.length s in
  s.(3 * n / 4) -. s.(n / 4)

let minimum l = List.fold_left Float.min Float.infinity l

(* Wall time of one call, in seconds, with its result. *)
let time_run f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* [n] timings of [f] in seconds per call, after [warmup] untimed calls.
   Each timing covers [batch] consecutive calls (divided back out), so
   sub-millisecond work rises above timer noise. *)
let samples ?(warmup = 1) ?(batch = 1) n f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  List.init n (fun _ ->
      let t, () =
        time_run (fun () ->
            for _ = 1 to batch do
              ignore (f ())
            done)
      in
      t /. float_of_int batch)

(* [n] timings of each of two configurations, taken in pairs that
   alternate which side runs first, each after a major collection, so
   slow drift of the machine and GC debt left by the previous run land on
   both sides evenly instead of penalizing whichever runs later.  One
   untimed warm-up call of each side first. *)
let paired n f_a f_b =
  ignore (f_a ());
  ignore (f_b ());
  let timed f =
    Gc.major ();
    fst (time_run f)
  in
  let ta = ref [] and tb = ref [] in
  for i = 1 to n do
    if i land 1 = 0 then begin
      ta := timed f_a :: !ta;
      tb := timed f_b :: !tb
    end
    else begin
      tb := timed f_b :: !tb;
      ta := timed f_a :: !ta
    end
  done;
  (!ta, !tb)

(* Both medians of [paired], in milliseconds. *)
let paired_median_ms n f_a f_b =
  let ta, tb = paired n f_a f_b in
  (1000.0 *. median ta, 1000.0 *. median tb)

(* Adaptive nanoseconds per call: one untimed warm-up call, then batches
   of 1, 4, 16, ... calls until one batch runs at least [min_time]
   seconds, long enough to swamp timer resolution. *)
let ns_per_op ~min_time f =
  ignore (f ());
  let rec go reps =
    let dt, () =
      time_run (fun () ->
          for _ = 1 to reps do
            ignore (f ())
          done)
    in
    if dt >= min_time then 1e9 *. dt /. float_of_int reps else go (reps * 4)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                      *)
(* ------------------------------------------------------------------ *)

(* The scale-4 TPC-DS workload environment, built once per process. *)
let workload_env = ref None

let get_env () =
  match !workload_env with
  | Some env -> env
  | None ->
      let env = W.Runner.setup_env ~scale:4 () in
      workload_env := Some env;
      env

(* Synthetic R(a,b), S(a,b) partitioned on b, as in §4.4.2/§4.4.3.
   [hash_on_key] distributes on b instead of a (co-location on the
   partitioning key, needed by the partition-wise-join ablation). *)
let make_rs ?(hash_on_key = false) ~nparts () =
  let catalog = Cat.create () in
  let part table_name =
    Part.single_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~key_index:1 ~key_name:"b" ~scheme:Part.Range ~table_name
      (Part.int_ranges ~start:0 ~width:100 ~count:nparts)
  in
  let dist = Dist.Hashed [ (if hash_on_key then 1 else 0) ] in
  let _r =
    Cat.add_table catalog ~name:"r"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:dist ~partitioning:(part "r") ()
  in
  let _s =
    Cat.add_table catalog ~name:"s"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:dist ~partitioning:(part "s") ()
  in
  catalog
