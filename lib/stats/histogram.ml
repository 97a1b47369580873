(** Equi-depth histograms over {!Mpp_expr.Value.t}.

    Buckets are closed-open ranges except the last, which is closed; each
    bucket carries its row count and a distinct-value estimate.  Histograms
    drive the selectivity estimates of {!Selectivity}. *)

open Mpp_expr

type bucket = {
  lo : Value.t;
  hi : Value.t;
  rows : int;
  ndv : int;
  hi_inclusive : bool;
}

type t = { buckets : bucket array; null_rows : int; total_rows : int }

let empty = { buckets = [||]; null_rows = 0; total_rows = 0 }

(* The one bucket loop, over [n] sorted non-NULL values: [get k] is the
   [k]-th and [same k] whether it equals the one before.  A bucket takes
   about [n / nbuckets] values, then extends so equal values never
   straddle a boundary; its bounds are the values [get] returns. *)
let of_sorted ~nbuckets ~null_rows ~n ~get ~same =
  let total_rows = n + null_rows in
  if n = 0 then { empty with null_rows; total_rows }
  else begin
    let per = max 1 (n / min nbuckets n) in
    let buckets = ref [] in
    let i = ref 0 in
    while !i < n do
      let start = !i in
      let stop = ref (min (n - 1) (start + per - 1)) in
      while !stop < n - 1 && same (!stop + 1) do
        incr stop
      done;
      let ndv = ref 1 in
      for k = start + 1 to !stop do
        if not (same k) then incr ndv
      done;
      buckets :=
        {
          lo = get start;
          hi = get !stop;
          rows = !stop - start + 1;
          ndv = !ndv;
          hi_inclusive = !stop = n - 1;
        }
        :: !buckets;
      i := !stop + 1
    done;
    { buckets = Array.of_list (List.rev !buckets); null_rows; total_rows }
  end

let rec bit_width x = if x = 0 then 0 else 1 + bit_width (x lsr 1)

(* The key of each value when all are [Int] or all are [Date]; raises
   [Exit] otherwise. *)
let int_keys (values : Value.t array) =
  let key : Value.t -> int =
    if Array.length values = 0 then raise_notrace Exit
    else
      match values.(0) with
      | Value.Int _ -> ( function Value.Int x -> x | _ -> raise_notrace Exit)
      | Value.Date _ -> (
          function Value.Date d -> (d :> int) | _ -> raise_notrace Exit)
      | _ -> raise_notrace Exit
  in
  Array.map key values

(* Stable LSD radix sort of an all-[Int] or all-[Date] array.  Each value
   becomes one int, its key − min above its index, so [p.(k) lsr ib] is the
   [k]-th smallest key − min and [p.(k) land (1 lsl ib - 1)] where it sits
   in [values]; indices break ties, so equal keys keep their input order.
   [None] for any other array, or when the pair does not fit one int (a
   range that overflows reads as 63 bits). *)
let radix_sort values =
  match int_keys values with
  | exception Exit -> None
  | p ->
      let n = Array.length p in
      let lo = Array.fold_left Int.min max_int p
      and hi = Array.fold_left Int.max min_int p in
      let range = hi - lo and ib = bit_width (n - 1) in
      let kb = bit_width range in
      if kb + ib > 62 then None
      else begin
        for i = 0 to n - 1 do
          p.(i) <- ((p.(i) - lo) lsl ib) lor i
        done;
        (* digits of at most 11 bits, as few passes as the range needs *)
        let passes = (kb + 10) / 11 in
        let d = if passes = 0 then 0 else (kb + passes - 1) / passes in
        let mask = (1 lsl d) - 1 in
        let count = Array.make (mask + 1) 0 in
        let src = ref p and dst = ref (Array.make n 0) in
        for pass = 0 to passes - 1 do
          let shift = ib + (pass * d) and s = !src and t = !dst in
          Array.fill count 0 (mask + 1) 0;
          for i = 0 to n - 1 do
            let b = (s.(i) lsr shift) land mask in
            count.(b) <- count.(b) + 1
          done;
          let pos = ref 0 in
          for b = 0 to mask do
            let c = count.(b) in
            count.(b) <- !pos;
            pos := !pos + c
          done;
          for i = 0 to n - 1 do
            let x = s.(i) in
            let b = (x lsr shift) land mask in
            t.(count.(b)) <- x;
            count.(b) <- count.(b) + 1
          done;
          src := t;
          dst := s
        done;
        Some (!src, ib)
      end

(** Build from the non-NULL [values] of a column in input order, plus
    [null_rows].  All-[Int] and all-[Date] arrays are radix-sorted by key;
    any other is stable-sorted in place with {!Value.compare}.  Either
    way, of values that compare equal the first in input order comes first,
    and bucket bounds are elements of [values]. *)
let of_array ?(nbuckets = 32) ~null_rows (values : Value.t array) : t =
  let n = Array.length values in
  match radix_sort values with
  | Some (p, ib) ->
      let idx = (1 lsl ib) - 1 in
      of_sorted ~nbuckets ~null_rows ~n
        ~get:(fun k -> values.(p.(k) land idx))
        ~same:(fun k -> p.(k) lsr ib = p.(k - 1) lsr ib)
  | None ->
      Array.stable_sort Value.compare values;
      of_sorted ~nbuckets ~null_rows ~n
        ~get:(fun k -> values.(k))
        ~same:(fun k -> Value.equal values.(k) values.(k - 1))

(** Build an equi-depth histogram with at most [nbuckets] buckets. *)
let build ?nbuckets (values : Value.t list) : t =
  let non_null = List.filter (fun v -> not (Value.is_null v)) values in
  of_array ?nbuckets
    ~null_rows:(List.length values - List.length non_null)
    (Array.of_list non_null)

let ndv t = Array.fold_left (fun acc b -> acc + b.ndv) 0 t.buckets

let min_value t =
  if Array.length t.buckets = 0 then None else Some t.buckets.(0).lo

let max_value t =
  let n = Array.length t.buckets in
  if n = 0 then None else Some t.buckets.(n - 1).hi

let bucket_interval b =
  if b.hi_inclusive then
    match Interval.make (Interval.B (b.lo, true)) (Interval.B (b.hi, true)) with
    | Some i -> i
    | None -> Interval.point b.lo
  else
    match Interval.closed_open b.lo b.hi with
    | Some i -> i
    | None -> Interval.point b.lo

(* Fraction of bucket [b] that interval [iv] covers, with linear
   interpolation for numeric/date domains and a containment test otherwise. *)
let bucket_fraction b iv =
  match Interval.intersect (bucket_interval b) iv with
  | None -> 0.0
  | Some cut when Interval.is_point cut <> None ->
      (* an equality hit: one of the bucket's distinct values *)
      1.0 /. float_of_int (max 1 b.ndv)
  | Some cut ->
      let numeric v =
        match v with
        | Value.Int i -> Some (float_of_int i)
        | Value.Float f -> Some f
        | Value.Date d -> Some (float_of_int (d : Date.t :> int))
        | _ -> None
      in
      (match (numeric b.lo, numeric b.hi) with
      | Some lo, Some hi when hi > lo ->
          let bound_val default = function
            | Interval.Neg_inf | Interval.Pos_inf -> default
            | Interval.B (v, _) -> (
                match numeric v with Some f -> f | None -> default)
          in
          let clo = bound_val lo cut.Interval.lo
          and chi = bound_val hi cut.Interval.hi in
          Float.max 0.0 (Float.min 1.0 ((chi -. clo) /. (hi -. lo)))
      | _ ->
          (* non-numeric: count the cut as covering the whole bucket if it
             spans both bucket ends, half otherwise *)
          if Interval.contains cut b.lo && Interval.contains cut b.hi then 1.0
          else 0.5)

(** Estimated fraction of non-null rows whose value falls in [set]. *)
let selectivity t (set : Interval.Set.t) =
  let non_null = t.total_rows - t.null_rows in
  if non_null = 0 then 0.0
  else if Interval.Set.is_full set then 1.0
  else
    let rows =
      Array.fold_left
        (fun acc b ->
          let f =
            List.fold_left
              (fun m iv -> Float.min 1.0 (m +. bucket_fraction b iv))
              0.0
              (Interval.Set.to_list set)
          in
          acc +. (f *. float_of_int b.rows))
        0.0 t.buckets
    in
    Float.max 0.0 (Float.min 1.0 (rows /. float_of_int non_null))

let pp fmt t =
  Format.fprintf fmt "@[<v>histogram: %d rows (%d null), %d buckets@,"
    t.total_rows t.null_rows (Array.length t.buckets);
  Array.iter
    (fun b ->
      Format.fprintf fmt "  [%a, %a%s rows=%d ndv=%d@," Value.pp b.lo Value.pp
        b.hi
        (if b.hi_inclusive then "]" else ")")
        b.rows b.ndv)
    t.buckets;
  Format.fprintf fmt "@]"
