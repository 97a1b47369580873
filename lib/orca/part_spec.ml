(** [PartSelectorSpec] — the compact description of the PartitionSelector
    that still needs to be placed for one unresolved DynamicScan (paper
    Figures 7 and 11).

    The multi-level form is used throughout: [keys] and [predicates] have one
    entry per partitioning level ([None] = no predicate on that level's key),
    which degenerates to the single-level Figure-7 structure for one-level
    tables. *)

open Mpp_expr

type t = {
  part_scan_id : int;
  root_oid : int;
  keys : Colref.t list;  (** partitioning-key colrefs, one per level *)
  predicates : Expr.t option list;  (** per-level partition predicates *)
}

(** A fresh spec for an unresolved DynamicScan: no predicates yet. *)
let initial ~part_scan_id ~root_oid ~keys =
  { part_scan_id; root_oid; keys; predicates = List.map (fun _ -> None) keys }

(** Augment the spec with newly found per-level predicates, conjoining with
    whatever was already accumulated (the [Conj] of Algorithms 3/4). *)
let add_predicates t (found : Expr.t option list) =
  {
    t with
    predicates =
      List.map2
        (fun existing newer ->
          match (existing, newer) with
          | None, p | p, None -> p
          | Some a, Some b -> Some (Expr.conj [ b; a ]))
        t.predicates found;
  }

let pp fmt t =
  Format.fprintf fmt "<%d, [%s], [%s]>" t.part_scan_id
    (String.concat "; " (List.map Colref.to_string t.keys))
    (String.concat "; "
       (List.map
          (function None -> "Φ" | Some p -> Expr.to_string p)
          t.predicates))

let to_string t = Format.asprintf "%a" pp t
