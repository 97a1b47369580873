(** The normalized plan cache: fingerprint + optimizer + shape-bindings →
    verified physical plan.

    Invariants:
    - every entry is a plan the optimizer already verified: both optimizers
      end with {!Mpp_verify.Verify.assert_valid}, so the cache stores what
      it is given and the cache-hit path executes with per-query
      verification off, which is where the "near-zero optimizer time on
      hits" comes from;
    - every entry records the catalog generation it was optimized under;
      a lookup that finds a stale entry drops it and reports a miss
      (counted as an invalidation), so DDL can never serve a plan built
      against the old catalog;
    - the cache is bounded: inserting into a full cache evicts the
      least-recently-used entry.

    Thread-safety: all operations take the cache mutex.  In the serving
    layer only the coordinator thread touches the cache, but the lock
    keeps the counters exact if front ends probe from elsewhere. *)

module Plan = Mpp_plan.Plan
module Est = Mpp_plan.Est
module Catalog = Mpp_catalog.Catalog
module Json = Mpp_obs.Json

type entry = {
  plan : Plan.t;
  est : Est.t;
  generation : int;
  mutable last_used : int;
}

(** Entries a cache holds before an insert evicts. *)
let capacity = 256

type t = {
  tbl : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable invalidations : int;
  mutable evictions : int;
}

let create () =
  {
    tbl = Hashtbl.create 64;
    lock = Mutex.create ();
    clock = 0;
    hits = 0;
    misses = 0;
    inserts = 0;
    invalidations = 0;
    evictions = 0;
  }

let key ~fingerprint ~kind ~shape =
  fingerprint ^ "\x00" ^ kind ^ "\x00" ^ shape

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~catalog k =
  with_lock t (fun () ->
      t.clock <- t.clock + 1;
      match Hashtbl.find_opt t.tbl k with
      | Some e when e.generation = Catalog.generation catalog ->
          e.last_used <- t.clock;
          t.hits <- t.hits + 1;
          Some (e.plan, e.est)
      | Some _ ->
          Hashtbl.remove t.tbl k;
          t.invalidations <- t.invalidations + 1;
          t.misses <- t.misses + 1;
          None
      | None ->
          t.misses <- t.misses + 1;
          None)

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, v) when v.last_used <= e.last_used -> ()
      | _ -> victim := Some (k, e))
    t.tbl;
  match !victim with
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1
  | None -> ()

(** Store a plan the optimizer produced (and so verified) under [k],
    stamped with the catalog's current generation. *)
let insert t ~catalog k plan est =
  with_lock t (fun () ->
      if Hashtbl.length t.tbl >= capacity && not (Hashtbl.mem t.tbl k)
      then evict_lru t;
      t.clock <- t.clock + 1;
      Hashtbl.replace t.tbl k
        {
          plan;
          est;
          generation = Catalog.generation catalog;
          last_used = t.clock;
        };
      t.inserts <- t.inserts + 1)

let size t = with_lock t (fun () -> Hashtbl.length t.tbl)

type stats = {
  hits : int;
  misses : int;
  inserts : int;
  invalidations : int;
  evictions : int;
  entries : int;
}

let stats (t : t) : stats =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        inserts = t.inserts;
        invalidations = t.invalidations;
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
      })

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let stats_to_json t =
  let s = stats t in
  Json.Obj
    [
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("inserts", Json.Int s.inserts);
      ("invalidations", Json.Int s.invalidations);
      ("evictions", Json.Int s.evictions);
      ("entries", Json.Int s.entries);
      ("hit_rate", Json.Float (hit_rate s));
    ]
