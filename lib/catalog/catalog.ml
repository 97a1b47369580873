(** The metadata catalog: OID allocation and table lookup by name or OID.
    Leaf partitions are registered alongside their root so that the storage
    layer can "locate and retrieve the tuples belonging to a partition"
    given only a leaf OID (paper §2.1). *)

type t = {
  mutable next_oid : int;
  by_oid : (int, Table.t) Hashtbl.t;
  by_name : (string, Table.t) Hashtbl.t;
  leaf_root : (int, int) Hashtbl.t;  (** leaf OID → root OID *)
  mutable generation : int;
      (** bumped on every DDL change; plan caches key on it so a cached
          plan never outlives the catalog state it was optimized against *)
}

let create () =
  {
    next_oid = 16384;
    by_oid = Hashtbl.create 64;
    by_name = Hashtbl.create 64;
    leaf_root = Hashtbl.create 256;
    generation = 0;
  }

let generation t = t.generation
let bump_generation t = t.generation <- t.generation + 1

let alloc_oid t =
  let o = t.next_oid in
  t.next_oid <- o + 1;
  o

(** Register a table.  [partitioning] must have been built with this
    catalog's {!alloc_oid} (see the helpers in {!Partition}). *)
let add_table t ~name ~columns ~distribution ?partitioning () =
  if Hashtbl.mem t.by_name name then
    invalid_arg ("Catalog.add_table: duplicate table " ^ name);
  let oid = alloc_oid t in
  let tbl =
    {
      Table.oid;
      name;
      columns = Array.of_list columns;
      distribution;
      partitioning;
    }
  in
  Hashtbl.replace t.by_oid oid tbl;
  Hashtbl.replace t.by_name name tbl;
  (match partitioning with
  | None -> ()
  | Some p ->
      Array.iter
        (fun (lf : Partition.leaf) ->
          Hashtbl.replace t.leaf_root lf.leaf_oid oid)
        p.Partition.leaves);
  bump_generation t;
  tbl

let find t name =
  match Hashtbl.find_opt t.by_name name with
  | Some tbl -> tbl
  | None -> invalid_arg ("Catalog.find: no table " ^ name)

let find_opt t name = Hashtbl.find_opt t.by_name name

let find_oid_opt t oid = Hashtbl.find_opt t.by_oid oid

let find_oid t oid =
  match find_oid_opt t oid with
  | Some tbl -> tbl
  | None -> invalid_arg ("Catalog.find_oid: no table with oid " ^ string_of_int oid)

(** A leaf's partitioned root, else the OID itself. *)
let root_of t oid =
  match Hashtbl.find_opt t.leaf_root oid with Some r -> r | None -> oid

let tables t =
  Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.by_oid []
  |> List.sort (fun (a : Table.t) b -> Int.compare a.oid b.oid)
