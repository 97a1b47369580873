(** Frozen reference join-order search: the level-synchronous beam DP
    exactly as [Orca.Joinorder.order] computed it before that module moved
    to flat per-level tables (per-level [Hashtbl]s of records, full sorts
    for the beam, edge-index lists walked per candidate).  It lives only in
    the test tree, where [test_opt_parallel] checks that the production
    search returns the same order on generated graphs; it is not a second
    implementation for the optimizer to call.  The body below is a
    verbatim copy and must not be edited. *)

module Obs = Mpp_obs.Obs
module Dpool = Mpp_exec.Dpool

type graph = Orca.Joinorder.graph = {
  nleaves : int;
  leaf_rows : float array;
  edges : (int * float) array;
  incident : int list array;
}

(* One DP state: the best left-deep prefix found for [s_mask].  [s_prev]
   and [s_last] identify the extension that produced it — they double as
   the deterministic tie-break and as the reconstruction chain. *)
type state = {
  s_mask : int;
  s_rows : float;
  s_cost : float;
  s_last : int;  (** leaf joined last *)
  s_prev : int;  (** predecessor mask (0 for singletons) *)
}

(* Total order on candidates for one subset: no two candidates share
   (s_prev, s_last), so this never ties — merges are order-independent. *)
let better a b =
  a.s_cost < b.s_cost
  || (a.s_cost = b.s_cost
     && (a.s_prev < b.s_prev || (a.s_prev = b.s_prev && a.s_last < b.s_last)))

(* Extend [s] by leaf [j] into [out], keeping the per-subset minimum.
   Newly covered edges are exactly the incident edges of [j] whose mask is
   a subset of the extended mask; their selectivities multiply in edge
   index order (fixed — float determinism). *)
let extend g ~cross out s j =
  let nm = s.s_mask lor (1 lsl j) in
  let sel = ref 1.0 and connected = ref false in
  List.iter
    (fun ei ->
      let mask, es = g.edges.(ei) in
      if mask land lnot nm = 0 then begin
        sel := !sel *. es;
        connected := true
      end)
    g.incident.(j);
  if !connected || cross then begin
    let jr = g.leaf_rows.(j) in
    let rows = Float.max 1.0 (s.s_rows *. jr *. !sel) in
    (* C_out-style: pay each leaf's scan once plus every intermediate
       result; the real cost model re-costs the chosen order downstream *)
    let cand =
      {
        s_mask = nm;
        s_rows = rows;
        s_cost = s.s_cost +. jr +. rows;
        s_last = j;
        s_prev = s.s_mask;
      }
    in
    match Hashtbl.find_opt out nm with
    | Some cur when not (better cand cur) -> ()
    | _ -> Hashtbl.replace out nm cand
  end

(* The beam: keep the best [beam] states of a level under the total order
   (cost, mask, prev, last) — again tie-free, so the kept set is the same
   for every domain count. *)
let prune ~beam states =
  if Array.length states <= beam then states
  else begin
    let arr = Array.copy states in
    Array.sort
      (fun a b ->
        let c = Float.compare a.s_cost b.s_cost in
        if c <> 0 then c
        else compare (a.s_mask, a.s_prev, a.s_last) (b.s_mask, b.s_prev, b.s_last))
      arr;
    Array.sub arr 0 beam
  end

(** Best left-deep join order over [g]: leaf indices, first-joined first.
    The result is identical for every pool size. *)
let order ?(pool = Dpool.get ~domains:1) ?(beam = 1024) (g : graph) : int list
    =
  let n = g.nleaves in
  if n = 0 then []
  else if n = 1 then [ 0 ]
  else begin
    let beam = max 1 beam in
    let obs = Obs.current () in
    Obs.incr obs "joinorder.searches";
    let levels = Array.init n (fun _ -> Hashtbl.create 64) in
    for i = 0 to n - 1 do
      Hashtbl.replace levels.(0) (1 lsl i)
        {
          s_mask = 1 lsl i;
          s_rows = g.leaf_rows.(i);
          s_cost = g.leaf_rows.(i);
          s_last = i;
          s_prev = 0;
        }
    done;
    for k = 0 to n - 2 do
      let states =
        Hashtbl.fold (fun _ s acc -> s :: acc) levels.(k) []
        |> List.sort (fun a b -> compare a.s_mask b.s_mask)
        |> Array.of_list
      in
      let states = prune ~beam states in
      Obs.add obs "joinorder.states" (Array.length states);
      let ns = Array.length states in
      let nchunks = min (Dpool.size pool) ns in
      let locals = Array.init nchunks (fun _ -> Hashtbl.create 64) in
      Dpool.parallel_chunks pool ~n:ns (fun ci lo hi ->
          let out = locals.(ci) in
          for si = lo to hi - 1 do
            let s = states.(si) in
            for j = 0 to n - 1 do
              if s.s_mask land (1 lsl j) = 0 then extend g ~cross:false out s j
            done
          done);
      let merged = levels.(k + 1) in
      Array.iter
        (fun local ->
          Hashtbl.iter
            (fun m cand ->
              match Hashtbl.find_opt merged m with
              | Some cur when not (better cand cur) -> ()
              | _ -> Hashtbl.replace merged m cand)
            local)
        locals;
      if Hashtbl.length merged = 0 then
        (* disconnected graph at this level: no connected extension exists
           anywhere, so redo it (serially — rare) allowing cross products *)
        Array.iter
          (fun s ->
            for j = 0 to n - 1 do
              if s.s_mask land (1 lsl j) = 0 then extend g ~cross:true merged s j
            done)
          states
    done;
    let full = (1 lsl n) - 1 in
    let final =
      match Hashtbl.find_opt levels.(n - 1) full with
      | Some s -> s
      | None ->
          (* unreachable: each level extends every surviving state *)
          assert false
    in
    let rec walk acc mask k =
      if k < 0 then acc
      else
        match Hashtbl.find_opt levels.(k) mask with
        | Some s -> walk (s.s_last :: acc) s.s_prev (k - 1)
        | None -> assert false
    in
    walk [] final.s_mask (n - 1)
  end
