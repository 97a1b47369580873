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

(* Entries are threaded on an intrusive circular doubly-linked list in
   order of use: from the newest, [older] walks back to the oldest, whose
   [older] is the newest again, so a touch and an eviction are O(1).  A
   lone entry links to itself. *)
type entry = {
  key : string;
  plan : Plan.t;
  est : Est.t;
  generation : int;
  mutable newer : entry;
  mutable older : entry;
}

(** Entries a cache holds before an insert evicts. *)
let capacity = 256

type t = {
  tbl : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable newest : entry option;  (** the list's head; [None] when empty *)
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
    newest = None;
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

let unlink t e =
  if e.older == e then t.newest <- None
  else begin
    e.newer.older <- e.older;
    e.older.newer <- e.newer;
    match t.newest with
    | Some n when n == e -> t.newest <- Some e.older
    | _ -> ()
  end;
  e.newer <- e;
  e.older <- e

(* [e] is unlinked: link it in as the newest, between the old newest and
   the oldest. *)
let push_newest t e =
  (match t.newest with
  | None -> ()
  | Some n ->
      let oldest = n.newer in
      e.older <- n;
      e.newer <- oldest;
      oldest.older <- e;
      n.newer <- e);
  t.newest <- Some e

let remove t e =
  unlink t e;
  Hashtbl.remove t.tbl e.key

let find t ~catalog k =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some e when e.generation = Catalog.generation catalog ->
          unlink t e;
          push_newest t e;
          t.hits <- t.hits + 1;
          Some (e.plan, e.est)
      | Some e ->
          remove t e;
          t.invalidations <- t.invalidations + 1;
          t.misses <- t.misses + 1;
          None
      | None ->
          t.misses <- t.misses + 1;
          None)

(** Store a plan the optimizer produced (and so verified) under [k],
    stamped with the catalog's current generation. *)
let insert t ~catalog k plan est =
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.tbl k with
      | Some e -> remove t e
      | None when Hashtbl.length t.tbl >= capacity ->
          Option.iter
            (fun n ->
              remove t n.newer;
              t.evictions <- t.evictions + 1)
            t.newest
      | None -> ());
      let rec e =
        {
          key = k;
          plan;
          est;
          generation = Catalog.generation catalog;
          newer = e;
          older = e;
        }
      in
      push_newest t e;
      Hashtbl.replace t.tbl k e;
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
