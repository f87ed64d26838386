module Bitset = Qopt_util.Bitset

let orders_for_table block q =
  (* Only predicates incident on [q] can contribute a join key, so walk the
     quantifier's adjacency edges instead of the whole predicate list.
     [crossing_preds] preserves predicate-list order, so the resulting
     orders come out exactly as the full scan produced them. *)
  let join_keys =
    List.filter_map
      (fun p ->
        match Pred.join_cols p with
        | Some (l, r) ->
          if l.Colref.q = q then Some (Order_prop.make Join_key [ l ])
          else if r.Colref.q = q then Some (Order_prop.make Join_key [ r ])
          else None
        | None -> None)
      (Query_block.crossing_preds block (Bitset.singleton q)
         (Query_block.neighbors block q))
  in
  let grouping =
    match
      List.filter (fun (c : Colref.t) -> c.Colref.q = q) block.Query_block.group_by
    with
    | [] -> []
    | cols -> [ Order_prop.make Grouping cols ]
  in
  let ordering =
    let rec prefix = function
      | (c : Colref.t) :: rest when c.Colref.q = q -> c :: prefix rest
      | _ :: _ | [] -> []
    in
    match prefix block.Query_block.order_by with
    | [] -> []
    | cols -> [ Order_prop.make Ordering cols ]
  in
  List.fold_left
    (fun acc o -> Order_prop.insert_dedup Equiv.empty o acc)
    [] (join_keys @ grouping @ ordering)

(* A column still has a "future use" for entry [tables] when some equality
   join predicate links (the equivalence class of) the column to a
   quantifier outside the entry. *)
let future_join_use block equiv ~tables c =
  List.exists
    (function
      | Pred.Eq_join (l, r) when l.Colref.q <> r.Colref.q ->
        (Bitset.mem l.Colref.q tables
        && (not (Bitset.mem r.Colref.q tables))
        && Equiv.same equiv l c)
        || (Bitset.mem r.Colref.q tables
           && (not (Bitset.mem l.Colref.q tables))
           && Equiv.same equiv r c)
      | Pred.Eq_join _ | Pred.Local_cmp _ | Pred.Local_in _ | Pred.Expensive _ ->
        false)
    block.Query_block.preds

let order_retired block equiv ~tables (t : Order_prop.t) =
  match t.Order_prop.kind with
  | Grouping | Ordering -> false
  | Join_key ->
    not
      (List.exists (fun c -> future_join_use block equiv ~tables c) t.Order_prop.cols)

let partition_interesting block equiv ~tables (p : Partition_prop.t) =
  let subset_of cols universe =
    cols <> []
    && List.for_all
         (fun c -> List.exists (fun u -> Equiv.same equiv c u) universe)
         cols
  in
  let joins_pending =
    List.exists (fun c -> future_join_use block equiv ~tables c) p.Partition_prop.keys
  in
  match p.Partition_prop.kind with
  | Hash ->
    joins_pending || subset_of p.Partition_prop.keys block.Query_block.group_by
  | Range ->
    joins_pending
    ||
    (* Range partitions help ORDER BY when the keys form a prefix. *)
    let rec is_prefix keys obs =
      match (keys, obs) with
      | [], _ -> true
      | _ :: _, [] -> false
      | k :: keys', o :: obs' -> Equiv.same equiv k o && is_prefix keys' obs'
    in
    p.Partition_prop.keys <> [] && is_prefix p.Partition_prop.keys block.Query_block.order_by

let physical_partition block q =
  let table = (Query_block.quantifier block q).Quantifier.table in
  Option.map
    (fun spec -> Partition_prop.of_spec ~q spec)
    table.Qopt_catalog.Table.partition

let filter_indexes block q =
  let table = (Query_block.quantifier block q).Quantifier.table in
  let has_eq_pred col =
    List.exists
      (fun p ->
        match p with
        | Pred.Local_cmp (c, Pred.Eq, _) | Pred.Local_in (c, _) ->
          c.Colref.q = q && String.equal c.Colref.col col
        | Pred.Local_cmp _ | Pred.Eq_join _ | Pred.Expensive _ -> false)
      block.Query_block.preds
  in
  List.filter
    (fun (idx : Qopt_catalog.Index.t) ->
      match idx.Qopt_catalog.Index.columns with
      | leading :: _ -> has_eq_pred leading
      | [] -> false)
    table.Qopt_catalog.Table.indexes

let merge_order equiv preds =
  let cols =
    List.filter_map
      (fun p ->
        match Pred.join_cols p with Some (l, _) -> Some l | None -> None)
      preds
  in
  match Equiv.normalize_cols equiv cols with
  | [] -> None
  | cols -> Some (Order_prop.make Join_key cols)
