(* The frozen reference search in [joinorder_ref.ml] must stay verbatim,
   and it was written when the optimizer fanned each search level out over
   [Mpp_exec.Dpool.parallel_chunks].  The optimizer's search is serial now
   and the executor's pool no longer offers chunked fan-out, so the
   [joinorder_ref] library (test/dune) gives the reference this one-domain
   stand-in for the three pool functions it calls: every range is one chunk
   run by the caller, which is what the reference did at its default
   pool. *)

module Dpool = struct
  type t = One_domain

  let get ~domains =
    if domains <> 1 then invalid_arg "Joinorder_ref: one domain only";
    One_domain

  let size One_domain = 1
  let parallel_chunks One_domain ~n f = if n > 0 then f 0 0 n
end
