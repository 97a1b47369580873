(** Left-deep join-order search over relation bitsets.

    Level-synchronous dynamic programming over connected subsets of the
    join graph, keeping the best prefix per subset under a tie-free total
    order.  Beam-bounded; cross products only when the graph is
    disconnected. *)

type graph = {
  nleaves : int;
  leaf_rows : float array;  (** post-filter row estimate per leaf *)
  edges : (int * float) array;
      (** (leaf bitmask, selectivity) per join conjunct *)
  incident : int list array;  (** leaf -> indices into [edges], ascending *)
}

val make : leaf_rows:float array -> edges:(int * float) array -> graph
(** Build the join graph.  Raises [Invalid_argument] beyond 60 leaves
    (subsets are int bitmasks). *)

val order : ?beam:int -> graph -> int list
(** Best left-deep join order: leaf indices, first-joined first.  [beam]
    (default 1024) bounds the per-level frontier.  Deterministic: the
    result depends only on the graph and the beam. *)
