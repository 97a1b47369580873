(** Data-distribution policies of an MPP table (paper §3.1).

    Distribution is orthogonal to partitioning: a table is distributed
    across segments (by hashing some columns, by replication, or randomly)
    and each segment's slice may additionally be partitioned. *)

type t =
  | Hashed of int list
      (** hash-distributed on the given column indices; tuples live on
          segment [hash(cols) mod nsegments] *)
  | Replicated  (** a full copy of the table on every segment *)
  | Random  (** round-robin; no co-location guarantees *)
  | Singleton  (** the whole table on one host (e.g. the master) *)

let equal a b =
  match (a, b) with
  | Hashed xs, Hashed ys -> xs = ys
  | Replicated, Replicated | Random, Random | Singleton, Singleton -> true
  | (Hashed _ | Replicated | Random | Singleton), _ -> false

let to_string = function
  | Hashed cols ->
      "hashed(" ^ String.concat "," (List.map string_of_int cols) ^ ")"
  | Replicated -> "replicated"
  | Random -> "random"
  | Singleton -> "singleton"

let pp fmt d = Format.pp_print_string fmt (to_string d)

(** The cluster-wide hash used both for hash-distributed storage and for
    Redistribute Motions, so that equal keys always land on the same
    segment. *)
let hash_step acc v = (acc * 31) + Mpp_expr.Value.hash v
let hash_values (vs : Mpp_expr.Value.t list) = List.fold_left hash_step 17 vs

let segment_for_values ~nsegments vs = abs (hash_values vs) mod nsegments

let segment_for_row ~nsegments (row : Mpp_expr.Value.t array) offs =
  let h = ref 17 in
  for i = 0 to Array.length offs - 1 do
    h := hash_step !h (Array.unsafe_get row offs.(i))
  done;
  abs !h mod nsegments

(** Segment assignment of a tuple under this policy.  [None] means the tuple
    belongs on every segment (replicated). *)
let segment_of ~nsegments policy (tuple : Mpp_expr.Value.t array) ~rowno =
  match policy with
  | Replicated -> None
  | Singleton -> Some 0
  | Random -> Some (rowno mod nsegments)
  | Hashed cols ->
      Some
        (segment_for_values ~nsegments
           (List.map (fun c -> tuple.(c)) cols))
