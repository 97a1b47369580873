open Mpp_expr
module Table = Mpp_catalog.Table

type t = Dsingleton | Dreplicated | Dhashed of Colref.t list | Dany

let of_table (table : Table.t) ~rel =
  match table.Table.distribution with
  | Mpp_catalog.Distribution.Hashed cols ->
      Dhashed
        (List.map
           (fun i ->
             let name, dtype = table.Table.columns.(i) in
             Colref.make ~rel ~index:i ~name ~dtype)
           cols)
  | Mpp_catalog.Distribution.Replicated -> Dreplicated
  | Mpp_catalog.Distribution.Random -> Dany
  | Mpp_catalog.Distribution.Singleton -> Dsingleton

let satisfies ~required d =
  match (required, d) with
  | Dany, _ | Dreplicated, Dreplicated | Dsingleton, Dsingleton -> true
  | Dhashed want, Dhashed have ->
      List.length want = List.length have && List.for_all2 Colref.equal want have
  | _ -> false

let equi_pairs ~build_rels ~probe_rels pred =
  let refs_only rels e =
    Expr.rels e <> [] && List.for_all (fun r -> List.mem r rels) (Expr.rels e)
  in
  List.filter_map
    (function
      | Expr.Cmp (Expr.Eq, a, b)
        when refs_only build_rels a && refs_only probe_rels b ->
          Some (a, b)
      | Expr.Cmp (Expr.Eq, a, b)
        when refs_only probe_rels a && refs_only build_rels b ->
          Some (b, a)
      | _ -> None)
    (Expr.conjuncts pred)

let paired pairs b p =
  List.exists
    (function
      | Expr.Col x, Expr.Col y -> Colref.equal x b && Colref.equal y p
      | _ -> false)
    pairs

let colocated pairs ~build ~probe =
  match (build, probe) with
  | Dreplicated, _ | _, Dreplicated | Dsingleton, Dsingleton -> true
  | Dhashed bs, Dhashed ps ->
      bs <> []
      && List.length bs = List.length ps
      && List.for_all2 (paired pairs) bs ps
  | _ -> false

let redistribute_keys pairs ~probe =
  let partner p =
    List.find_map
      (function
        | Expr.Col b, Expr.Col y when Colref.equal y p -> Some b | _ -> None)
      pairs
  in
  match probe with
  | Dhashed (_ :: _ as ps) ->
      let bs = List.filter_map partner ps in
      if List.length bs = List.length ps then Some bs else None
  | _ -> None

let join ~build ~probe =
  if probe = Dreplicated && build <> Dreplicated then build else probe
