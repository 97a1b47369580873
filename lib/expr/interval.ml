(** Interval algebra over {!Value.t}.

    Partition constraints in the catalog are stored in the normal form the
    paper gives in §3.2: [pk ∈ ∪ᵢ (aᵢ₁, aᵢₖ)] where each interval may be open,
    closed or half-open, possibly unbounded.  Predicate analysis reduces a
    predicate on the partitioning key to the same normal form, and partition
    selection ([f*_T]) is then interval-set intersection.

    An {!Interval.t} is never empty; constructors return [option] and
    normalize away empty ranges.  An {!Interval.Set.t} is a sorted list of
    disjoint, non-adjacent intervals. *)

type bound =
  | Neg_inf
  | Pos_inf
  | B of Value.t * bool  (** value and whether the bound is inclusive *)

type t = { lo : bound; hi : bound }

let pp_bound_lo fmt = function
  | Neg_inf -> Format.pp_print_string fmt "(-inf"
  | Pos_inf -> Format.pp_print_string fmt "(+inf"
  | B (v, true) -> Format.fprintf fmt "[%a" Value.pp v
  | B (v, false) -> Format.fprintf fmt "(%a" Value.pp v

let pp_bound_hi fmt = function
  | Neg_inf -> Format.pp_print_string fmt "-inf)"
  | Pos_inf -> Format.pp_print_string fmt "+inf)"
  | B (v, true) -> Format.fprintf fmt "%a]" Value.pp v
  | B (v, false) -> Format.fprintf fmt "%a)" Value.pp v

let pp fmt { lo; hi } =
  Format.fprintf fmt "%a, %a" pp_bound_lo lo pp_bound_hi hi

(* Lower bounds ordered by where the interval starts: an inclusive bound at v
   starts earlier than an exclusive bound at v. *)
let compare_lo a b =
  match (a, b) with
  | Neg_inf, Neg_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, Pos_inf -> 0
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | B (v, vi), B (w, wi) ->
      let c = Value.compare v w in
      if c <> 0 then c
      else Bool.compare wi vi (* inclusive starts earlier *)

(* Upper bounds ordered by where the interval ends: an exclusive bound at v
   ends earlier than an inclusive bound at v. *)
let compare_hi a b =
  match (a, b) with
  | Neg_inf, Neg_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, Pos_inf -> 0
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | B (v, vi), B (w, wi) ->
      let c = Value.compare v w in
      if c <> 0 then c else Bool.compare vi wi

(* Is the range (lo, hi) non-empty? *)
let nonempty lo hi =
  match (lo, hi) with
  | Neg_inf, Neg_inf | Pos_inf, Pos_inf -> false
  | Pos_inf, _ | _, Neg_inf -> false
  | Neg_inf, _ | _, Pos_inf -> true
  | B (v, vi), B (w, wi) ->
      let c = Value.compare v w in
      c < 0 || (c = 0 && vi && wi)

let make lo hi = if nonempty lo hi then Some { lo; hi } else None

let full = { lo = Neg_inf; hi = Pos_inf }
let point v = { lo = B (v, true); hi = B (v, true) }

(** Closed-open range [\[lo, hi)], the shape of a typical range partition. *)
let closed_open lo hi = make (B (lo, true)) (B (hi, false))

let at_least v = { lo = B (v, true); hi = Pos_inf }
let greater_than v = { lo = B (v, false); hi = Pos_inf }
let at_most v = { lo = Neg_inf; hi = B (v, true) }
let less_than v = { lo = Neg_inf; hi = B (v, false) }

let is_point { lo; hi } =
  match (lo, hi) with
  | B (v, true), B (w, true) when Value.equal v w -> Some v
  | _ -> None

let contains { lo; hi } v =
  (match lo with
  | Neg_inf -> true
  | Pos_inf -> false
  | B (w, incl) ->
      let c = Value.compare v w in
      c > 0 || (c = 0 && incl))
  &&
  match hi with
  | Pos_inf -> true
  | Neg_inf -> false
  | B (w, incl) ->
      let c = Value.compare v w in
      c < 0 || (c = 0 && incl)

let max_lo a b = if compare_lo a b >= 0 then a else b
let min_lo a b = if compare_lo a b <= 0 then a else b
let max_hi a b = if compare_hi a b >= 0 then a else b
let min_hi a b = if compare_hi a b <= 0 then a else b

let intersect a b = make (max_lo a.lo b.lo) (min_hi a.hi b.hi)
let overlaps a b = intersect a b <> None

(* Do [a] and [b] overlap or touch, i.e. is their union a single interval? *)
let touches a b =
  overlaps a b
  ||
  let touch hi lo =
    match (hi, lo) with
    | B (v, vi), B (w, wi) -> Value.equal v w && (vi || wi)
    | _ -> false
  in
  touch a.hi b.lo || touch b.hi a.lo

let equal a b = compare_lo a.lo b.lo = 0 && compare_hi a.hi b.hi = 0

(** Total size in bytes of the bounds when serialized into a plan. *)
let serialized_size { lo; hi } =
  let bsize = function
    | Neg_inf | Pos_inf -> 1
    | B (v, _) -> 1 + Value.serialized_size v
  in
  bsize lo + bsize hi

(* the one-interval test, under a name [Set.contains] does not shadow *)
let interval_contains = contains

module Set = struct
  type interval = t

  type t = interval list
  (** Sorted by lower bound; pairwise disjoint and non-adjacent. *)

  let empty : t = []
  let full : t = [ full ]
  let is_empty (s : t) = s = []
  let is_full (s : t) =
    match s with [ i ] -> i.lo = Neg_inf && i.hi = Pos_inf | _ -> false
  let singleton (i : interval) : t = [ i ]
  let of_interval_opt = function None -> [] | Some i -> [ i ]
  let point v : t = [ point v ]

  (* a loop, not [List.exists] over a closure: the selector's point
     lookup checks default arms per row and must not allocate *)
  let rec contains (s : t) v =
    match s with
    | [] -> false
    | i :: rest -> interval_contains i v || contains rest v

  (* Normalize an arbitrary interval list: sort and merge. *)
  let normalize (l : interval list) : t =
    let sorted = List.sort (fun a b -> compare_lo a.lo b.lo) l in
    let rec merge = function
      | [] -> []
      | [ x ] -> [ x ]
      | x :: y :: rest ->
          if touches x y then
            merge ({ lo = min_lo x.lo y.lo; hi = max_hi x.hi y.hi } :: rest)
          else x :: merge (y :: rest)
    in
    merge sorted

  let of_list = normalize
  let union (a : t) (b : t) : t = normalize (a @ b)

  let inter (a : t) (b : t) : t =
    (* Both lists are small in practice (partition constraints have a handful
       of arms), so the quadratic product is fine and simple. *)
    List.concat_map
      (fun ia -> List.filter_map (fun ib -> intersect ia ib) b)
      a
    |> normalize

  (* Complement relies on the invariant that [s] is sorted and disjoint. *)
  let complement (s : t) : t =
    let flip_lo = function
      | Neg_inf -> None (* nothing before -inf *)
      | Pos_inf -> Some Pos_inf
      | B (v, incl) -> Some (B (v, not incl))
    and flip_hi = function
      | Pos_inf -> None
      | Neg_inf -> Some Neg_inf
      | B (v, incl) -> Some (B (v, not incl))
    in
    match s with
    | [] -> full
    | first :: _ ->
        let leading =
          match flip_lo first.lo with
          | None -> []
          | Some hi -> of_interval_opt (make Neg_inf hi)
        in
        (* gaps between intervals and the trailing piece *)
        let rec tail = function
          | [] -> []
          | [ last ] -> (
              match flip_hi last.hi with
              | None -> []
              | Some lo -> of_interval_opt (make lo Pos_inf))
          | a :: (b :: _ as rest) ->
              let g =
                match (flip_hi a.hi, flip_lo b.lo) with
                | Some lo, Some hi -> of_interval_opt (make lo hi)
                | _ -> []
              in
              g @ tail rest
        in
        normalize (leading @ tail s)

  let diff a b = inter a (complement b)
  let is_subset a b = is_empty (diff a b)
  let overlaps_set (a : t) (b : t) = not (is_empty (inter a b))

  let equal (a : t) (b : t) =
    List.length a = List.length b && List.for_all2 equal a b

  let to_list (s : t) : interval list = s

  let serialized_size (s : t) =
    List.fold_left (fun acc i -> acc + serialized_size i) 2 s

  let pp fmt (s : t) =
    match s with
    | [] -> Format.pp_print_string fmt "{}"
    | _ ->
        Format.pp_print_string fmt "{";
        List.iteri
          (fun k i ->
            if k > 0 then Format.pp_print_string fmt " ∪ ";
            pp fmt i)
          s;
        Format.pp_print_string fmt "}"
end
