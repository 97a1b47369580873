(** Plan-time cardinality estimates, stamped per physical node.

    The rule Orca's memo priced every alternative with is folded once
    over the finished plan ([Memo.estimator]) and the
    per-node results are frozen into a pre-order array — the same node
    numbering {!Mpp_exec.Exec} and {!Mpp_exec.Explain} use (root = 0, a
    node's first child is its index + 1, siblings after the whole
    subtree).  [EXPLAIN ANALYZE] then reports estimated-vs-actual rows
    with an error factor per node: the raw misestimate-detection signal
    for adaptive execution, captured {e at plan time} (misestimate
    injections are cleared right after optimization, so stamping later
    would see different statistics).

    Estimates are non-negative floats; a negative entry (or an index past
    the array) means "unknown" — legacy-Planner plans and hand-built test
    plans carry no estimates. *)

type t = float array
(** One estimate per pre-order node index; negative = unknown. *)

let none : t = [||]

(** Stamp a plan: [estimate] is called once per node with the subtree
    rooted there, in pre-order (Orca's memoizes its rule per node).
    An estimator exception marks that node unknown rather than aborting —
    estimation must never make a valid plan unrunnable. *)
let of_plan ~(estimate : Plan.t -> float) (plan : Plan.t) : t =
  let ests =
    Plan.fold
      (fun acc node ->
        let e = try estimate node with _ -> -1.0 in
        (if Float.is_nan e then -1.0 else e) :: acc)
      [] plan
  in
  Array.of_list (List.rev ests)

let find (t : t) id =
  if id >= 0 && id < Array.length t && t.(id) >= 0.0 then Some t.(id)
  else None

(** The error factor between an estimate and an actual row count — the
    symmetric "q-error": [max (est / act, act / est)] with both sides
    clamped to at least 1 row, so a node estimated at 100 rows that
    produced 10 and one estimated at 10 that produced 100 both report
    10.0.  Always >= 1.0; 1.0 is a perfect estimate. *)
let error_factor ~est ~actual =
  let e = Float.max est 1.0 in
  let a = Float.max (float_of_int actual) 1.0 in
  Float.max (e /. a) (a /. e)
