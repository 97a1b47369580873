(** A compact Cascades-style Memo with the property-enforcement framework of
    paper §3.1.

    Partition propagation is modelled as a {e physical property} requested
    alongside data distribution: an optimization request is a pair
    [{dist; parts}] where [parts] lists the {!Part_spec}s the subtree must
    resolve.  [PartitionSelector] is the enforcer of the partition property,
    [Motion] the enforcer of distribution, and the enforcement-order rule of
    the paper — "operator-specific logic guarantees enforcers are plugged in
    the right order" — appears as one guard: a Motion enforcer may only be
    applied when every pending spec's DynamicScan lives {e inside} this
    group's subtree (then selector and scan stay in the same process below
    the Motion); a spec for a scan {e elsewhere} must be resolved by a
    PartitionSelector {e above} any Motion, never below one.

    The memo reproduces the paper's Figure 13/14 example exactly: for
    [SELECT * FROM R, S WHERE R.pk = S.a] with R partitioned, four plan
    shapes are enumerated and only the [HashJoin(Selector(Replicate(S)), R)]
    alternative performs partition selection.

    {1 Shape}

    Groups live in an array-backed arena indexed by gid (group lookup is
    O(1)).  Memoized results live in a per-exploration {!ctx}: requests
    are interned to dense integer ids through a structural hash/equality
    table — no string building on the memoized-lookup hot path — and the
    best table is keyed by one packed int per (group, request) pair.  Among
    equally cheap candidates the first in candidate order wins.

    Scope: [Get]/[Select]/[Join] trees (the shapes of the paper's §3.1);
    the production path for full queries is {!Optimizer}. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Table = Mpp_catalog.Table
module Obs = Mpp_obs.Obs

(* ------------------------------------------------------------------ *)
(* Requests (physical properties)                                      *)
(* ------------------------------------------------------------------ *)

type dist_req =
  | Any
  | Req_hashed of Colref.t list
  | Req_replicated
  | Req_singleton

type request = {
  dist : dist_req;
  parts : Part_spec.t list;
  pinned : int list;
      (** part-scan ids whose PartitionSelector is being resolved *above*
          this subtree: the scan below must not cross a Motion, so Motion
          enforcers are prohibited while any pinned scan is in scope *)
}

let dist_req_to_string = function
  | Any -> "Any"
  | Req_hashed cols ->
      "Hashed(" ^ String.concat "," (List.map Colref.to_string cols) ^ ")"
  | Req_replicated -> "Replicated"
  | Req_singleton -> "Singleton"

let request_to_string r =
  Printf.sprintf "{%s, <%s>%s}" (dist_req_to_string r.dist)
    (String.concat "; " (List.map Part_spec.to_string r.parts))
    (match r.pinned with
    | [] -> ""
    | ids ->
        ", pinned:" ^ String.concat "," (List.map string_of_int ids))

(* Structural hashing/equality for requests — the intern-table key.  The
   old key was [request_to_string], which allocated and hashed a fresh
   string on every memoized lookup; this compares the fields directly.
   The hash folds over cheap integer features (predicate *presence* rather
   than structure); [equal] is exact, including [Expr.equal] on per-level
   selector predicates. *)
module Req_key = struct
  type t = request

  let dist_equal a b =
    match (a, b) with
    | Any, Any | Req_replicated, Req_replicated | Req_singleton, Req_singleton
      ->
        true
    | Req_hashed xs, Req_hashed ys ->
        List.length xs = List.length ys && List.for_all2 Colref.equal xs ys
    | _ -> false

  let spec_equal (a : Part_spec.t) (b : Part_spec.t) =
    a.part_scan_id = b.part_scan_id
    && a.root_oid = b.root_oid
    && List.length a.keys = List.length b.keys
    && List.for_all2 Colref.equal a.keys b.keys
    && List.length a.predicates = List.length b.predicates
    && List.for_all2
         (fun x y ->
           match (x, y) with
           | None, None -> true
           | Some p, Some q -> Expr.equal p q
           | _ -> false)
         a.predicates b.predicates

  let equal a b =
    dist_equal a.dist b.dist
    && List.length a.parts = List.length b.parts
    && List.for_all2 spec_equal a.parts b.parts
    && a.pinned = b.pinned

  let hash r =
    let mix h x = ((h * 131) + x) land max_int in
    let h =
      match r.dist with
      | Any -> 3
      | Req_replicated -> 5
      | Req_singleton -> 7
      | Req_hashed cols ->
          List.fold_left
            (fun h (c : Colref.t) -> mix h ((c.rel * 97) + c.index))
            11 cols
    in
    let h =
      List.fold_left
        (fun h (s : Part_spec.t) ->
          let p =
            List.fold_left
              (fun a p -> (2 * a) + (match p with None -> 0 | Some _ -> 1))
              0 s.predicates
          in
          mix h ((s.part_scan_id * 193) + s.root_oid + p))
        h r.parts
    in
    List.fold_left (fun h id -> mix h (id + 17)) h r.pinned
end

module Req_tbl = Hashtbl.Make (Req_key)

(* ------------------------------------------------------------------ *)
(* Groups and expressions                                              *)
(* ------------------------------------------------------------------ *)

type lexpr =
  | L_get of { rel : int; table : Table.t; pred : Expr.t option }
  | L_join of { pred : Expr.t; left : int; right : int }

type pexpr =
  | P_scan of { rel : int; table : Table.t; pred : Expr.t option }
  | P_dynamic_scan of {
      rel : int;
      table : Table.t;
      part_scan_id : int;
      pred : Expr.t option;
    }
  | P_hash_join of { pred : Expr.t; left : int; right : int }
      (** left = build side, executed first *)
  | P_selector of Part_spec.t  (** enforcer; child in the same group *)
  | P_motion of Plan.motion_kind  (** enforcer; child in the same group *)

type group = {
  gid : int;
  lexprs : lexpr list;
  rels : int list;  (** range-table indices reachable in this group *)
}

type candidate = {
  cand_pexpr : pexpr;
  cand_children : (int * request) list;
      (** (group, request) per child; enforcers have their child in the same
          group *)
  cand_local_cost : float;
}

type best = { total_cost : float; chosen : candidate }

type t = {
  catalog : Mpp_catalog.Catalog.t;
  stats : Mpp_stats.Stats_source.t option;
  mutable groups : group array;  (** arena: index = gid; grows on insert *)
  mutable ngroups : int;
  nsegments : int;
}

let group t gid = t.groups.(gid)

(* ------------------------------------------------------------------ *)
(* Construction from a logical tree                                    *)
(* ------------------------------------------------------------------ *)

let add_group t lexprs rels =
  let gid = t.ngroups in
  let g = { gid; lexprs; rels } in
  let cap = Array.length t.groups in
  if gid = cap then begin
    let bigger = Array.make (max 8 (2 * cap)) g in
    Array.blit t.groups 0 bigger 0 cap;
    t.groups <- bigger
  end;
  t.groups.(gid) <- g;
  t.ngroups <- gid + 1;
  let obs = Obs.current () in
  Obs.incr obs "memo.groups";
  Obs.add obs "memo.group_exprs" (List.length lexprs);
  gid

let rec insert t (lg : Logical.t) : int =
  match lg with
  | Logical.Get { rel; table_name } ->
      let table = Mpp_catalog.Catalog.find t.catalog table_name in
      add_group t [ L_get { rel; table; pred = None } ] [ rel ]
  | Logical.Select { pred; child = Logical.Get { rel; table_name } } ->
      let table = Mpp_catalog.Catalog.find t.catalog table_name in
      add_group t [ L_get { rel; table; pred = Some pred } ] [ rel ]
  | Logical.Join { kind = Plan.Inner; pred; left; right } ->
      let l = insert t left and r = insert t right in
      let rels = (group t l).rels @ (group t r).rels in
      (* join commutativity: both orders are group expressions, as in the
         paper's Figure 13 (HashJoin[1,2] and HashJoin[2,1]) *)
      add_group t
        [ L_join { pred; left = l; right = r };
          L_join { pred; left = r; right = l } ]
        rels
  | _ ->
      invalid_arg
        "Memo.insert: only Get/Select(Get)/inner-Join trees are supported"

let create ?stats ?(nsegments = 4) ~catalog () =
  { catalog; stats; groups = [||]; ngroups = 0; nsegments }

(* ------------------------------------------------------------------ *)
(* Statistics helpers                                                  *)
(* ------------------------------------------------------------------ *)

let table_rows t (table : Table.t) =
  match t.stats with
  | Some src ->
      float_of_int (Mpp_stats.Stats_source.table_stats src table).rowcount
  | None -> float_of_int (Mpp_stats.Stats.defaults table).rowcount

let rec group_rows t gid =
  let g = group t gid in
  match g.lexprs with
  | L_get { table; pred; _ } :: _ ->
      let rows = table_rows t table in
      (match pred with None -> rows | Some _ -> Float.max 1.0 (rows *. 0.1))
  | L_join { left; right; _ } :: _ ->
      Float.max 1.0 (group_rows t left *. group_rows t right /. 100.0)
  | [] -> 1.0

(* ------------------------------------------------------------------ *)
(* Property satisfaction                                               *)
(* ------------------------------------------------------------------ *)

let natural_dist (table : Table.t) ~rel =
  match table.Table.distribution with
  | Mpp_catalog.Distribution.Hashed cols ->
      Req_hashed
        (List.map
           (fun i ->
             let name, dtype = table.Table.columns.(i) in
             Colref.make ~rel ~index:i ~name ~dtype)
           cols)
  | Mpp_catalog.Distribution.Replicated -> Req_replicated
  | Mpp_catalog.Distribution.Random | Mpp_catalog.Distribution.Singleton -> Any

let dist_satisfied ~delivered ~required =
  match (required, delivered) with
  | Any, _ -> true
  | Req_replicated, Req_replicated -> true
  | Req_singleton, Req_singleton -> true
  | Req_hashed want, Req_hashed have ->
      List.length want = List.length have
      && List.for_all2 Colref.equal want have
  | _ -> false

(* A Motion enforcer may only be placed when (a) every pending spec's scan
   is inside this subtree — the selector can then live below the Motion,
   next to its scan — and (b) no scan in scope is pinned to a remote
   selector above.  This is the §3.1 enforcement-order rule. *)
let motion_allowed g req =
  List.for_all
    (fun (s : Part_spec.t) -> List.mem s.Part_spec.part_scan_id g.rels)
    req.parts
  && List.for_all (fun id -> not (List.mem id g.rels)) req.pinned

(* ------------------------------------------------------------------ *)
(* Exploration contexts                                                *)
(* ------------------------------------------------------------------ *)

(* All memoized state for one exploration over the arena [memo]. *)
type ctx = {
  memo : t;
  stride : int;
      (** [memo.ngroups] at creation — packs (gid, request id) into one
          int key: [rid * stride + gid].  No groups are created during
          optimization, so the packing is stable. *)
  ids : int Req_tbl.t;  (** request -> dense id (structural interning) *)
  best : (int, best option) Hashtbl.t;
}

let ctx_create t =
  {
    memo = t;
    stride = max 1 t.ngroups;
    ids = Req_tbl.create 64;
    best = Hashtbl.create 256;
  }

let intern ctx req =
  match Req_tbl.find_opt ctx.ids req with
  | Some id -> id
  | None ->
      let id = Req_tbl.length ctx.ids in
      Req_tbl.add ctx.ids req id;
      id

let bkey ctx gid rid = (rid * ctx.stride) + gid

(* ------------------------------------------------------------------ *)
(* Optimization                                                        *)
(* ------------------------------------------------------------------ *)

let remove_spec parts spec =
  List.filter (fun s -> not (s == spec)) parts


let rec optimize_req ctx gid (req : request) : best option =
  let key = bkey ctx gid (intern ctx req) in
  match Hashtbl.find_opt ctx.best key with
  | Some b -> b
  | None ->
      (* in-progress marker: a request re-entering itself is unsatisfiable
         along that path *)
      Hashtbl.replace ctx.best key None;
      let t = ctx.memo in
      let g = group t gid in
      let impls = implementation_candidates t g req in
      let enfs = enforcer_candidates t g req in
      let obs = Obs.current () in
      Obs.incr obs "memo.requests";
      Obs.add obs "memo.impl_candidates" (List.length impls);
      Obs.add obs "memo.enforcer_candidates" (List.length enfs);
      let candidates = impls @ enfs in
      let best =
        List.fold_left
          (fun acc cand ->
            match total_cost ctx gid cand with
            | None -> acc
            | Some cost -> (
                match acc with
                | Some b when b.total_cost <= cost -> acc
                | _ -> Some { total_cost = cost; chosen = cand }))
          None candidates
      in
      Hashtbl.replace ctx.best key best;
      best

and total_cost ctx gid cand =
  ignore gid;
  List.fold_left
    (fun acc (cg, creq) ->
      match acc with
      | None -> None
      | Some c -> (
          match optimize_req ctx cg creq with
          | Some b -> Some (c +. b.total_cost)
          | None -> None))
    (Some cand.cand_local_cost) cand.cand_children

(* Implementation alternatives for the group's logical expressions. *)
and implementation_candidates t g req : candidate list =
  List.concat_map
    (fun le ->
      match le with
      | L_get { rel; table; pred } -> (
          match table.Table.partitioning with
          | None ->
              if
                req.parts = []
                && dist_satisfied ~delivered:(natural_dist table ~rel)
                     ~required:req.dist
              then
                [ { cand_pexpr = P_scan { rel; table; pred };
                    cand_children = [];
                    cand_local_cost = table_rows t table; } ]
              else []
          | Some p ->
              if
                req.parts = []
                && dist_satisfied ~delivered:(natural_dist table ~rel)
                     ~required:req.dist
              then
                [ { cand_pexpr =
                      P_dynamic_scan { rel; table; part_scan_id = rel; pred };
                    cand_children = [];
                    cand_local_cost =
                      table_rows t table
                      +. (40.0 *. float_of_int (Mpp_catalog.Partition.nparts p));
                  } ]
              else [])
      | L_join { pred; left; right } ->
          if req.dist <> Any then []
          else join_candidates t g req ~pred ~left ~right)
    g.lexprs

and join_candidates t g req ~pred ~left ~right : candidate list =
  ignore g;
  let gl = group t left and gr = group t right in
  (* Route the pending partition specs (and create new ones for DynamicScans
     of the probe side that the join predicate can constrain). *)
  let route spec (lparts, rparts, rpinned) =
    if List.mem spec.Part_spec.part_scan_id gl.rels then
      (lparts @ [ spec ], rparts, rpinned)
    else if List.mem spec.Part_spec.part_scan_id gr.rels then
      match
        Placement.join_dpe ~part_scan_id:spec.Part_spec.part_scan_id
          ~keys:spec.Part_spec.keys ~build_rels:gl.rels pred
      with
      | Some found ->
          (* dynamic partition elimination: resolve on the build side; the
             probe-side scan is now pinned (it must not cross a Motion) *)
          ( lparts @ [ Part_spec.add_predicates spec found ],
            rparts,
            rpinned @ [ spec.Part_spec.part_scan_id ] )
      | _ -> (lparts, rparts @ [ spec ], rpinned)
    else (lparts, rparts, rpinned)
  in
  let handled =
    List.filter
      (fun (s : Part_spec.t) ->
        List.mem s.Part_spec.part_scan_id gl.rels
        || List.mem s.Part_spec.part_scan_id gr.rels)
      req.parts
  in
  if List.length handled <> List.length req.parts then []
  else begin
    let lparts, rparts, rpinned = List.fold_right route req.parts ([], [], []) in
    let lpinned = List.filter (fun id -> List.mem id gl.rels) req.pinned in
    let rpinned =
      rpinned @ List.filter (fun id -> List.mem id gr.rels) req.pinned
    in
    let lrows = group_rows t left and rrows = group_rows t right in
    let local =
      (lrows *. 1.5) +. (rrows *. 1.0)
    in
    (* distribution alternatives: replicate the build side, or co-locate by
       hashing both sides on the join keys *)
    let bkeys, pkeys =
      List.fold_left
        (fun (bs, ps) c ->
          match c with
          | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)
            when List.mem a.Colref.rel gl.rels && List.mem b.Colref.rel gr.rels
            ->
              (bs @ [ a ], ps @ [ b ])
          | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)
            when List.mem b.Colref.rel gl.rels && List.mem a.Colref.rel gr.rels
            ->
              (bs @ [ b ], ps @ [ a ])
          | _ -> (bs, ps))
        ([], []) (Expr.conjuncts pred)
    in
    let replicate_alt =
      {
        cand_pexpr = P_hash_join { pred; left; right };
        cand_children =
          [ (left, { dist = Req_replicated; parts = lparts; pinned = lpinned });
            (right, { dist = Any; parts = rparts; pinned = rpinned }) ];
        cand_local_cost = local;
      }
    in
    let hashed_alt =
      if bkeys = [] then []
      else
        [ {
            cand_pexpr = P_hash_join { pred; left; right };
            cand_children =
              [ (left,
                 { dist = Req_hashed bkeys; parts = lparts; pinned = lpinned });
                (right,
                 { dist = Req_hashed pkeys; parts = rparts; pinned = rpinned })
              ];
            cand_local_cost = local;
          } ]
    in
    replicate_alt :: hashed_alt
  end

(* Enforcer alternatives: PartitionSelector resolves one pending spec;
   Motion delivers a required distribution. *)
and enforcer_candidates t g req : candidate list =
  (* Enforcement-order rule: a selector for a scan *inside* this subtree
     must stay below any Motion (apply Motion first, i.e. only enforce the
     selector here when no distribution is pending); a selector for a
     *remote* scan must go above any Motion (enforce it here regardless of
     the pending distribution — the Motion will be applied below it). *)
  let selector_alts =
    List.filter_map
      (fun (spec : Part_spec.t) ->
        let scan_inside = List.mem spec.Part_spec.part_scan_id g.rels in
        if scan_inside && req.dist <> Any then None
        else
          Some
            {
              cand_pexpr = P_selector spec;
              cand_children =
                [ (g.gid,
                   {
                     req with
                     parts = remove_spec req.parts spec;
                     pinned =
                       (if scan_inside then
                          spec.Part_spec.part_scan_id :: req.pinned
                        else req.pinned);
                   }) ];
              cand_local_cost = 1.0;
            })
      req.parts
  in
  let rows = group_rows t g.gid in
  let motion_alts =
    if not (motion_allowed g req) then []
    else
      match req.dist with
      | Any -> []
      | Req_replicated ->
          [ {
              cand_pexpr = P_motion Plan.Broadcast;
              cand_children =
                [ (g.gid, { req with dist = Any }) ];
              cand_local_cost = rows *. float_of_int t.nsegments *. 2.0;
            } ]
      | Req_hashed cols ->
          [ {
              cand_pexpr = P_motion (Plan.Redistribute cols);
              cand_children = [ (g.gid, { req with dist = Any }) ];
              cand_local_cost = rows *. 2.0;
            } ]
      | Req_singleton ->
          [ {
              cand_pexpr = P_motion Plan.Gather;
              cand_children = [ (g.gid, { req with dist = Any }) ];
              cand_local_cost = rows *. 2.0;
            } ]
  in
  selector_alts @ motion_alts

(* ------------------------------------------------------------------ *)
(* Plan extraction                                                     *)
(* ------------------------------------------------------------------ *)

let rec extract ctx gid (req : request) : Plan.t option =
  match optimize_req ctx gid req with
  | None -> None
  | Some best -> extract_candidate ctx gid best.chosen

and extract_candidate ctx _gid (cand : candidate) : Plan.t option =
  let children =
    List.map (fun (cg, creq) -> extract ctx cg creq) cand.cand_children
  in
  if List.exists Option.is_none children then None
  else
    let children = List.map Option.get children in
    match (cand.cand_pexpr, children) with
    | P_scan { rel; table; pred }, [] ->
        Some (Plan.table_scan ?filter:pred ~rel table.Table.oid)
    | P_dynamic_scan { rel; table; part_scan_id; pred }, [] ->
        Some (Plan.dynamic_scan ?filter:pred ~rel ~part_scan_id table.Table.oid)
    | P_selector spec, [ child ] ->
        if Plan.has_part_scan_id child spec.Part_spec.part_scan_id then
          (* the scan is below: a leaf selector ordered by a Sequence *)
          Some
            (Plan.Sequence
               [ Plan.partition_selector ~part_scan_id:spec.part_scan_id
                   ~root_oid:spec.root_oid ~keys:spec.keys
                   ~predicates:spec.predicates ();
                 child ])
        else
          (* streaming selector: OIDs flow to a scan elsewhere *)
          Some
            (Plan.partition_selector ~child ~part_scan_id:spec.part_scan_id
               ~root_oid:spec.root_oid ~keys:spec.keys
               ~predicates:spec.predicates ())
    | P_motion kind, [ child ] -> Some (Plan.motion kind child)
    | P_hash_join { pred; _ }, [ l; r ] ->
        Some (Plan.hash_join ~kind:Plan.Inner ~pred l r)
    | _ -> None
  [@@warning "-8"]

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration (for the Figure-14 plan-space display)        *)
(* ------------------------------------------------------------------ *)

let rec enumerate t gid (req : request) ~limit : Plan.t list =
  if limit <= 0 then []
  else
    let g = group t gid in
    let candidates =
      implementation_candidates t g req @ enforcer_candidates t g req
    in
    List.concat_map
      (fun cand ->
        let rec combine children =
          match children with
          | [] -> [ [] ]
          | (cg, creq) :: rest ->
              let subs =
                if cg = gid && Req_key.equal creq req then []
                else enumerate t cg creq ~limit:(min limit 4)
              in
              List.concat_map
                (fun sub -> List.map (fun tail -> sub :: tail) (combine rest))
                subs
        in
        combine cand.cand_children
        |> List.filter_map (fun children ->
               match (cand.cand_pexpr, children) with
               | P_scan { rel; table; pred }, [] ->
                   Some (Plan.table_scan ?filter:pred ~rel table.Table.oid)
               | P_dynamic_scan { rel; table; part_scan_id; pred }, [] ->
                   Some
                     (Plan.dynamic_scan ?filter:pred ~rel ~part_scan_id
                        table.Table.oid)
               | P_selector spec, [ child ] ->
                   if Plan.has_part_scan_id child spec.Part_spec.part_scan_id
                   then
                     Some
                       (Plan.Sequence
                          [ Plan.partition_selector
                              ~part_scan_id:spec.part_scan_id
                              ~root_oid:spec.root_oid ~keys:spec.keys
                              ~predicates:spec.predicates ();
                            child ])
                   else
                     Some
                       (Plan.partition_selector ~child
                          ~part_scan_id:spec.part_scan_id
                          ~root_oid:spec.root_oid ~keys:spec.keys
                          ~predicates:spec.predicates ())
               | P_motion kind, [ child ] -> Some (Plan.motion kind child)
               | P_hash_join { pred; _ }, [ l; r ] ->
                   Some (Plan.hash_join ~kind:Plan.Inner ~pred l r)
               | _ -> None))
      candidates
    |> List.filteri (fun i _ -> i < limit)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Initial optimization request for the root group: any distribution, and
    one partition-propagation spec per partitioned base table, as in the
    paper's req. #1. *)
let initial_request t ~root_gid : request =
  let g = group t root_gid in
  let find_partitioned rel =
    let rec scan i =
      if i >= t.ngroups then None
      else
        match
          List.find_map
            (fun le ->
              match le with
              | L_get { rel = r; table; _ }
                when r = rel && Table.is_partitioned table ->
                  Some
                    (Part_spec.initial ~part_scan_id:rel
                       ~root_oid:table.Table.oid
                       ~keys:(Table.part_key_colrefs table ~rel))
              | _ -> None)
            t.groups.(i).lexprs
        with
        | Some _ as s -> s
        | None -> scan (i + 1)
    in
    scan 0
  in
  { dist = Any; parts = List.filter_map find_partitioned g.rels; pinned = [] }

(** Optimize [lg] through the memo; returns the best plan and its cost. *)
let best_plan ?stats ?(nsegments = 4) ~catalog (lg : Logical.t) :
    (Plan.t * float) option =
  Obs.span (Obs.current ()) "memo.optimize" (fun () ->
      let t = create ?stats ~nsegments ~catalog () in
      let root = insert t lg in
      let req = initial_request t ~root_gid:root in
      let ctx = ctx_create t in
      match optimize_req ctx root req with
      | None -> None
      | Some best -> (
          match extract ctx root req with
          | Some plan -> Some (plan, best.total_cost)
          | None -> None))

(** Enumerate up to [limit] alternative plans for [lg] (paper Figure 14). *)
let plan_space ?stats ?(nsegments = 4) ?(limit = 16) ~catalog (lg : Logical.t)
    : Plan.t list =
  let t = create ?stats ~nsegments ~catalog () in
  let root = insert t lg in
  let req = initial_request t ~root_gid:root in
  let seen = Hashtbl.create 16 in
  enumerate t root req ~limit:(limit * 4)
  |> List.filter (fun p ->
         let k = Plan.to_string p in
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.replace seen k ();
           true
         end)
  |> List.filteri (fun i _ -> i < limit)
