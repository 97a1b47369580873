(** Left-deep join-order search over relation bitsets.

    {!Optimizer} flattens every inner-join region of at least five
    relations into a join graph and asks this module for a left-deep
    order; the physical optimizer then costs and orients the joins of the
    rebuilt tree.  The search is a level-synchronous dynamic program over
    connected subsets: level [k] holds the best left-deep prefix for every
    reachable [k+1]-relation subset.

    Data layout.  Nothing is allocated per candidate:
    - each leaf carries its incident edges (ascending edge index) as a
      mask array and a pair array [[|1.0; s0; 1.0; s1; ...|]], plus a
      neighbour bitmask, so without cross products an extension that
      cannot connect is rejected with one [land] before any edge is
      looked at.  The edge loop has no data-dependent branch: it turns
      "edge [e] is covered" into an int [c] of 0 or 1 by arithmetic,
      multiplies the selectivity product by [pair.(2e + c)] and ORs [c]
      into the "connected" flag;
    - each level's candidates live in an open-addressing table from subset
      mask to [rows]/[cost]/[last]/[prev], kept as parallel unboxed [int]
      and [float] arrays, sized up front from (states x remaining leaves)
      and reused from level to level;
    - the beam is chosen by partial selection (quickselect) and the
      survivors are compacted into per-level arrays, which also serve the
      final walk back along the [prev] chain.

    Determinism: candidates for the same subset are compared by
    [(cost, predecessor mask, last relation)], which never ties, and the
    beam keeps the least states under [(cost, mask)], which never ties
    either (a mask occurs once per level).  The kept set and the
    per-subset winners therefore depend neither on table layout nor on the
    order the selection leaves them in.  Selectivity products multiply in
    ascending edge-index order, rows are clamped with [Float.max 1.0] and
    the cost is [(prefix cost + leaf rows) + rows], so float rounding is
    fixed.  The edge loop also multiplies by 1.0 for each uncovered edge;
    [x *. 1.0] is exactly [x] for every float the product can hold
    (zeros, subnormals and infinities included), so the sequence of
    values the product takes over the covered edges, and with it every
    rows, cost and tie-break, is the one that multiplying only the
    covered selectivities gives.  [test/joinorder_ref.ml] keeps the earlier
    [Hashtbl]-and-full-sort search as a frozen reference, and the test
    suite checks both return the same order.

    The frontier is beam-bounded (default 1024 states per level — full DP
    on a 30-clique would need 2^30 subsets); when a level produces no
    connected extension (disconnected join graph) the level is redone
    allowing cross products, so search always reaches [n] relations. *)

module Obs = Mpp_obs.Obs

type graph = {
  nleaves : int;
  leaf_rows : float array;  (** post-filter row estimate per leaf *)
  edges : (int * float) array;
      (** (leaf bitmask, selectivity) per join conjunct *)
  incident : int list array;  (** leaf -> indices into [edges], ascending *)
}

let make ~leaf_rows ~edges =
  let n = Array.length leaf_rows in
  if n > 60 then invalid_arg "Joinorder.make: more than 60 relations";
  let incident = Array.make n [] in
  Array.iteri
    (fun ei (mask, _) ->
      for j = 0 to n - 1 do
        if mask land (1 lsl j) <> 0 then incident.(j) <- ei :: incident.(j)
      done)
    edges;
  { nleaves = n;
    leaf_rows;
    edges;
    incident = Array.map List.rev incident;
  }

(* Per-leaf flat view of [g.incident], built once per search.  [pair.(j)]
   holds [1.0; s] for each incident edge of [j] in ascending edge index,
   so the edge loop multiplies by [pair.(2e + covered)] without a branch.
   [nbr.(j)] is every other leaf that an edge incident to [j] mentions: a
   prefix disjoint from it covers none of [j]'s edges.  An edge on [j]
   alone is covered by every extension by [j], so such a leaf gets
   [nbr = -1]. *)
type leaves = {
  rows : float array;
  inc_mask : int array array;  (** leaf -> incident edge masks *)
  pair : float array array;  (** leaf -> [1.0; selectivity] per edge *)
  nbr : int array;
}

let leaves_of g =
  let inc_mask =
    Array.map
      (fun l -> Array.of_list (List.map (fun ei -> fst g.edges.(ei)) l))
      g.incident
  in
  let pair =
    Array.map
      (fun l ->
        let a = Array.make (2 * List.length l) 1.0 in
        List.iteri (fun e ei -> a.((2 * e) + 1) <- snd g.edges.(ei)) l;
        a)
      g.incident
  in
  let nbr =
    Array.mapi
      (fun j masks ->
        Array.fold_left
          (fun acc m ->
            let others = m land lnot (1 lsl j) in
            if others = 0 then -1 else acc lor others)
          0 masks)
      inc_mask
  in
  { rows = g.leaf_rows; inc_mask; pair; nbr }

(* One level's candidates: open addressing (linear probing) from subset
   mask to the best prefix found for it.  Mask 0 marks an empty slot —
   every subset is non-empty.  [slots] lists the occupied slots, so a
   level is walked, selected and cleared without scanning the capacity. *)
type table = {
  mutable bits : int;  (** capacity = 2^bits *)
  mutable keys : int array;
  mutable rows : float array;
  mutable cost : float array;
  mutable last : int array;  (** leaf joined last *)
  mutable prev : int array;  (** predecessor mask (0 for singletons) *)
  mutable slots : int array;
  mutable count : int;
}

let table () =
  { bits = 0;
    keys = [||];
    rows = [||];
    cost = [||];
    last = [||];
    prev = [||];
    slots = [||];
    count = 0;
  }

(* Room for [need] distinct masks at load factor at most 1/2.  Called on
   an empty table only: growing drops the (absent) contents. *)
let reserve t need =
  if 2 * need > Array.length t.keys then begin
    let bits = ref 4 in
    while 1 lsl !bits < 2 * need do
      incr bits
    done;
    let cap = 1 lsl !bits in
    t.bits <- !bits;
    t.keys <- Array.make cap 0;
    t.rows <- Array.make cap 0.0;
    t.cost <- Array.make cap 0.0;
    t.last <- Array.make cap 0;
    t.prev <- Array.make cap 0;
    t.slots <- Array.make (cap / 2) 0
  end

let clear t =
  for r = 0 to t.count - 1 do
    t.keys.(t.slots.(r)) <- 0
  done;
  t.count <- 0

(* The slot holding [m]; or, when [m] is absent, [lnot] of the empty slot
   now claimed for it (negative: the caller's candidate is the first).
   Fibonacci hashing takes the top [bits] bits of the 63-bit product. *)
let probe t m =
  let keys = t.keys in
  let wrap = Array.length keys - 1 in
  let i = ref ((m * 0x9E3779B97F4A7C1) lsr (63 - t.bits)) in
  while
    let k = keys.(!i) in
    k <> m && k <> 0
  do
    i := (!i + 1) land wrap
  done;
  if keys.(!i) = m then !i
  else begin
    keys.(!i) <- m;
    t.slots.(t.count) <- !i;
    t.count <- t.count + 1;
    lnot !i
  end

(* Keep the candidate for [m] if it is the first or beats the incumbent
   under the tie-free total order (cost, prev, last).  Inlined so the
   floats stay unboxed. *)
let[@inline] offer t m rows cost last prev =
  let i = probe t m in
  if i < 0 then begin
    let i = lnot i in
    t.rows.(i) <- rows;
    t.cost.(i) <- cost;
    t.last.(i) <- last;
    t.prev.(i) <- prev
  end
  else begin
    let c = t.cost.(i) in
    let p = t.prev.(i) in
    if cost < c || (cost = c && (prev < p || (prev = p && last < t.last.(i))))
    then begin
      t.rows.(i) <- rows;
      t.cost.(i) <- cost;
      t.last.(i) <- last;
      t.prev.(i) <- prev
    end
  end

(* A level's states that survived the beam, compacted out of its table. *)
type level = {
  masks : int array;
  lrows : float array;
  lcost : float array;
  lasts : int array;
  prevs : int array;
}

(* Offer every one-leaf extension of state [si] of [lv] to [t].  Newly
   covered edges are exactly the incident edges of [j] whose mask is a
   subset of the extended mask.  Every incident edge multiplies in, in
   edge-index order (fixed — float determinism): by its selectivity when
   covered, by 1.0 (exact) when not, so no branch depends on the data. *)
let extend lf ~n ~cross t lv si =
  let sm = lv.masks.(si) in
  for j = 0 to n - 1 do
    if sm land (1 lsl j) = 0 && (cross || sm land lf.nbr.(j) <> 0) then begin
      let nm = sm lor (1 lsl j) in
      let em = lf.inc_mask.(j) and pair = lf.pair.(j) in
      let sel = ref 1.0 and connected = ref 0 in
      for e = 0 to Array.length em - 1 do
        (* 1 when edge [e] lies inside [nm], else 0: the uncovered bits
           are below 2^60, so less one they are negative exactly when
           there are none, and the sign bit is bit 62.  [pair] has two
           slots per entry of [em], so both reads are in bounds. *)
        let covered = ((Array.unsafe_get em e land lnot nm) - 1) lsr 62 in
        sel := !sel *. Array.unsafe_get pair ((2 * e) + covered);
        connected := !connected lor covered
      done;
      if !connected <> 0 || cross then begin
        let jr = lf.rows.(j) in
        let rows = Float.max 1.0 (lv.lrows.(si) *. jr *. !sel) in
        (* C_out-style: pay each leaf's scan once plus every intermediate
           result; the real cost model re-costs the chosen order downstream *)
        offer t nm rows (lv.lcost.(si) +. jr +. rows) j sm
      end
    end
  done

(* Quickselect (Hoare partition): reorder [t.slots.(0 .. count-1)] so the
   [k] least occupied slots under (cost, mask) come first.  Masks are
   unique within a level, so the order is total and the first [k] are
   exactly the first [k] of a full sort. *)
let select_least t k =
  let a = t.slots and cost = t.cost and keys = t.keys in
  let lt x y =
    let c = Float.compare cost.(x) cost.(y) in
    c < 0 || (c = 0 && keys.(x) < keys.(y))
  in
  let target = k - 1 in
  let lo = ref 0 and hi = ref (t.count - 1) in
  while !lo < !hi do
    let p = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while lt a.(!i) p do
        incr i
      done;
      while lt p a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if target <= !j then hi := !j
    else if target >= !i then lo := !i
    else lo := !hi
  done

(* The beam: the best [beam] states of the level in [t], compacted into a
   [level]; [t] is left empty for the next level's candidates. *)
let take_beam t ~beam =
  let keep = min t.count beam in
  if keep < t.count then select_least t keep;
  let lv =
    { masks = Array.make keep 0;
      lrows = Array.make keep 0.0;
      lcost = Array.make keep 0.0;
      lasts = Array.make keep 0;
      prevs = Array.make keep 0;
    }
  in
  for r = 0 to keep - 1 do
    let s = t.slots.(r) in
    lv.masks.(r) <- t.keys.(s);
    lv.lrows.(r) <- t.rows.(s);
    lv.lcost.(r) <- t.cost.(s);
    lv.lasts.(r) <- t.last.(s);
    lv.prevs.(r) <- t.prev.(s)
  done;
  clear t;
  lv

let no_level =
  { masks = [||]; lrows = [||]; lcost = [||]; lasts = [||]; prevs = [||] }

let index_of masks m =
  let r = ref 0 in
  while masks.(!r) <> m do
    incr r
  done;
  !r

(** Best left-deep join order over [g]: leaf indices, first-joined first. *)
let order ?(beam = 1024) (g : graph) : int list =
  let n = g.nleaves in
  if n = 0 then []
  else if n = 1 then [ 0 ]
  else begin
    let beam = max 1 beam in
    let obs = Obs.current () in
    Obs.incr obs "joinorder.searches";
    let lf = leaves_of g in
    let t = table () in
    reserve t n;
    for i = 0 to n - 1 do
      offer t (1 lsl i) g.leaf_rows.(i) g.leaf_rows.(i) i 0
    done;
    let levels = Array.make (n - 1) no_level in
    for k = 0 to n - 2 do
      let lv = take_beam t ~beam in
      levels.(k) <- lv;
      let ns = Array.length lv.masks in
      Obs.add obs "joinorder.states" ns;
      reserve t (ns * (n - k - 1));
      for si = 0 to ns - 1 do
        extend lf ~n ~cross:false t lv si
      done;
      if t.count = 0 then
        (* disconnected graph at this level: no connected extension exists
           anywhere, so redo it allowing cross products *)
        for si = 0 to ns - 1 do
          extend lf ~n ~cross:true t lv si
        done
    done;
    (* the last level holds the full set alone; walk its prev chain back *)
    let s = t.slots.(0) in
    let acc = ref [ t.last.(s) ] and pm = ref t.prev.(s) in
    for k = n - 2 downto 0 do
      let lv = levels.(k) in
      let r = index_of lv.masks !pm in
      acc := lv.lasts.(r) :: !acc;
      pm := lv.prevs.(r)
    done;
    !acc
  end
