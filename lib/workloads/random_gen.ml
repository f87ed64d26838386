module C = Qopt_catalog
module O = Qopt_optimizer
module Rng = Qopt_util.Rng
module Bitset = Qopt_util.Bitset

type proto = {
  tabs : string list;  (** table names in quantifier order *)
  preds : O.Pred.t list;
  children : O.Query_block.t list;
  blocked : int list;  (** quantifiers denied the outer role (subqueries) *)
}

let n_tabs p = List.length p.tabs

let shift_colref off (c : O.Colref.t) = O.Colref.make (c.O.Colref.q + off) c.O.Colref.col

let shift_pred off p =
  match p with
  | O.Pred.Eq_join (l, r) -> O.Pred.Eq_join (shift_colref off l, shift_colref off r)
  | O.Pred.Local_cmp (c, op, v) -> O.Pred.Local_cmp (shift_colref off c, op, v)
  | O.Pred.Local_in (c, n) -> O.Pred.Local_in (shift_colref off c, n)
  | O.Pred.Expensive (ts, sel, cost) ->
    O.Pred.Expensive
      (Bitset.fold (fun q acc -> Bitset.add (q + off) acc) ts Bitset.empty, sel, cost)

(* Foreign keys incident to a table, in either direction. *)
let fkeys_of schema tname =
  List.filter
    (fun (fk : C.Fkey.t) ->
      String.equal fk.C.Fkey.from_table tname || String.equal fk.C.Fkey.to_table tname)
    (C.Schema.fkeys schema)

let random_local_pred rng schema tname q =
  let table = C.Schema.find_table schema tname in
  (* Attribute-like columns only: realistic generated queries filter on
     low-cardinality attributes, not on keys or skewed measures. *)
  let cols =
    List.filter
      (fun (c : C.Column.t) ->
        c.C.Column.distinct > 1.0 && c.C.Column.distinct <= 1000.0)
      (Array.to_list table.C.Table.columns)
  in
  match cols with
  | [] -> None
  | _ ->
    let col = Rng.pick_list rng cols in
    let colref = O.Colref.make q col.C.Column.name in
    let d = int_of_float col.C.Column.distinct in
    if Rng.bool rng then
      Some (O.Pred.Local_cmp (colref, O.Pred.Eq, float_of_int (Rng.int rng d)))
    else
      (* Range bound in the upper half of the domain: weakly selective. *)
      let v = float_of_int ((d / 2) + Rng.int rng (max 1 (d / 2))) in
      Some (O.Pred.Local_cmp (colref, O.Pred.Le, v))

(* Grow a seed query: start at a random table and follow foreign keys. *)
let seed_query rng schema ~tables =
  let all_names = Array.of_list (C.Schema.table_names schema) in
  let start = Rng.pick rng all_names in
  let proto = ref { tabs = [ start ]; preds = []; children = []; blocked = [] } in
  let attempts = ref 0 in
  while n_tabs !proto < tables && !attempts < 50 do
    incr attempts;
    let p = !proto in
    let q = Rng.int rng (n_tabs p) in
    let tname = List.nth p.tabs q in
    match fkeys_of schema tname with
    | [] -> ()
    | fks ->
      let fk = Rng.pick_list rng fks in
      let other, my_col, other_col =
        if String.equal fk.C.Fkey.from_table tname then
          (fk.C.Fkey.to_table, List.hd fk.C.Fkey.from_cols, List.hd fk.C.Fkey.to_cols)
        else
          (fk.C.Fkey.from_table, List.hd fk.C.Fkey.to_cols, List.hd fk.C.Fkey.from_cols)
      in
      let new_q = n_tabs p in
      proto :=
        {
          p with
          tabs = p.tabs @ [ other ];
          preds =
            O.Pred.Eq_join (O.Colref.make q my_col, O.Colref.make new_q other_col)
            :: p.preds;
        }
  done;
  (* A couple of local predicates. *)
  let p = !proto in
  let locals =
    List.filteri (fun i _ -> i < 2)
      (List.filter_map
         (fun q -> random_local_pred rng schema (List.nth p.tabs q) q)
         (List.init (n_tabs p) Fun.id))
  in
  { p with preds = locals @ p.preds }

(* Merge by join: splice [b] into [a], connecting through a foreign key or a
   shared table (same-name columns), as the DB2 generator does. *)
let merge_join rng schema a b =
  let off = n_tabs a in
  let connection =
    let pairs =
      List.concat_map
        (fun (qa, ta) ->
          List.filter_map
            (fun (qb, tb) ->
              let fks =
                List.filter
                  (fun (fk : C.Fkey.t) ->
                    (String.equal fk.C.Fkey.from_table ta
                    && String.equal fk.C.Fkey.to_table tb)
                    || (String.equal fk.C.Fkey.from_table tb
                       && String.equal fk.C.Fkey.to_table ta))
                  (C.Schema.fkeys schema)
              in
              match fks with
              | fk :: _ ->
                let ca, cb =
                  if String.equal fk.C.Fkey.from_table ta then
                    (List.hd fk.C.Fkey.from_cols, List.hd fk.C.Fkey.to_cols)
                  else (List.hd fk.C.Fkey.to_cols, List.hd fk.C.Fkey.from_cols)
                in
                Some (qa, ca, qb, cb)
              | [] ->
                if String.equal ta tb then
                  (* Same table on both sides: join on its primary key
                     (the "columns with the same name" rule). *)
                  match (C.Schema.find_table schema ta).C.Table.primary_key with
                  | pk :: _ -> Some (qa, pk, qb, pk)
                  | [] -> None
                else None)
            (List.mapi (fun i t -> (i, t)) b.tabs))
        (List.mapi (fun i t -> (i, t)) a.tabs)
    in
    match pairs with [] -> None | _ -> Some (Rng.pick_list rng pairs)
  in
  Option.map
    (fun (qa, ca, qb, cb) ->
      {
        tabs = a.tabs @ b.tabs;
        preds =
          O.Pred.Eq_join (O.Colref.make qa ca, O.Colref.make (qb + off) cb)
          :: (a.preds @ List.map (shift_pred off) b.preds);
        children = a.children @ b.children;
        blocked = a.blocked @ List.map (fun q -> q + off) b.blocked;
      })
    connection

let to_block ?(name = "rand") rng schema proto =
  let quantifiers =
    List.mapi
      (fun i tname ->
        O.Quantifier.make
          ~outer_allowed:(not (List.mem i proto.blocked))
          i
          (C.Schema.find_table schema tname))
      proto.tabs
  in
  (* Group by 1-3 columns, order by a prefix of them. *)
  let random_cols k =
    List.filter_map
      (fun _ ->
        let q = Rng.int rng (n_tabs proto) in
        let table = C.Schema.find_table schema (List.nth proto.tabs q) in
        let cols = Array.to_list table.C.Table.columns in
        match cols with
        | [] -> None
        | _ -> Some (O.Colref.make q (Rng.pick_list rng cols).C.Column.name))
      (List.init k Fun.id)
  in
  let dedup cols =
    List.fold_left
      (fun acc c -> if O.Colref.list_mem c acc then acc else acc @ [ c ])
      [] cols
  in
  let group_by = dedup (random_cols (1 + Rng.int rng 3)) in
  let order_by =
    match group_by with [] -> [] | c :: _ -> if Rng.bool rng then [ c ] else []
  in
  O.Query_block.make ~name ~group_by ~order_by ~children:proto.children
    ~quantifiers ~preds:proto.preds ()

(* Merge as a subquery: [b] becomes a child block and the constrained
   quantifier of [a] loses its outer role, like an IN-subquery filter. *)
let merge_subquery rng schema a b =
  let child = to_block ~name:"rand$sub" rng schema b in
  let blocked_q = Rng.int rng (n_tabs a) in
  { a with children = child :: a.children; blocked = blocked_q :: a.blocked }

let generate ?(seed = 42) ?(count = 12) ?(complexity = 12) ~schema () =
  let rng = Rng.create seed in
  let queries =
    List.init count (fun i ->
        let target =
          3 + (i * (complexity - 3) / max 1 (count - 1))
        in
        let base = seed_query rng schema ~tables:(min target 5) in
        let rec grow fuel proto =
          if n_tabs proto >= target || fuel <= 0 then proto
          else begin
            let extra =
              seed_query rng schema ~tables:(min 4 (target - n_tabs proto))
            in
            let merged =
              if Rng.int rng 4 = 0 then merge_subquery rng schema proto extra
              else
                match merge_join rng schema proto extra with
                | Some m -> m
                | None -> merge_subquery rng schema proto extra
            in
            grow (fuel - 1) merged
          end
        in
        let proto = grow 6 base in
        let name = Printf.sprintf "rand_q%d" (i + 1) in
        Workload.query name (to_block ~name rng schema proto))
  in
  Workload.make ~name:"random" ~schema queries

let blocks ~schema ~tables ~count =
  let rec go seed acc k =
    if k = count then List.rev acc
    else if seed > 10_000 then
      invalid_arg
        (Printf.sprintf "Random_gen.blocks: no %d %d-table blocks" count tables)
    else begin
      let acc = ref acc and k = ref k in
      List.iter
        (fun (q : Workload.query) ->
          O.Query_block.iter_blocks
            (fun b ->
              if !k < count && O.Query_block.n_quantifiers b = tables then begin
                acc := b :: !acc;
                incr k
              end)
            q.Workload.block)
        (generate ~seed ~complexity:10 ~schema ()).Workload.queries;
      go (seed + 1) !acc !k
    end
  in
  go 1 [] 0
