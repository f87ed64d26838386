(* Reference cardinality model: the per-call [Cardinality.of_set] from
   before the per-MEMO selectivity context, kept verbatim as the
   differential oracle for [Cardinality.card].  Every call rescans the
   block's predicate list, re-reads the histograms and regroups the join
   predicates by quantifier pair; the context must reproduce its result
   bit for bit. *)

module O = Qopt_optimizer
module Bitset = Qopt_util.Bitset
module Column = Qopt_catalog.Column
module Table = Qopt_catalog.Table
module Histogram = Qopt_catalog.Histogram
module Query_block = O.Query_block
module Pred = O.Pred
module Colref = O.Colref
module Quantifier = O.Quantifier

type mode = O.Cardinality.mode =
  | Full
  | Simple

let column block c = Query_block.column block c

let local_selectivity mode block p =
  match p with
  | Pred.Eq_join _ -> 1.0
  | Pred.Expensive (_, sel, _) -> sel
  | Pred.Local_cmp (c, op, v) -> begin
    let col = column block c in
    match mode with
    | Full -> begin
      let h = col.Column.histogram in
      match op with
      | Pred.Eq -> Histogram.sel_eq h v
      | Pred.Lt -> Histogram.sel_lt h v
      | Pred.Le -> Histogram.sel_le h v
      | Pred.Gt -> Histogram.sel_gt h v
      | Pred.Ge -> Histogram.sel_ge h v
    end
    | Simple -> begin
      match op with
      | Pred.Eq -> 1.0 /. Float.max 1.0 col.Column.distinct
      | Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge ->
        (* A hedged default: many range predicates in practice are weakly
           selective, and a low default compounds badly over queries with
           dozens of local predicates. *)
        0.45
    end
  end
  | Pred.Local_in (c, n) ->
    let col = column block c in
    let frac = float_of_int n /. Float.max 1.0 col.Column.distinct in
    Float.min (match mode with Full -> 1.0 | Simple -> 0.5) frac

let join_selectivity mode block p =
  match Pred.join_cols p with
  | None -> 1.0
  | Some (l, r) -> begin
    let cl = column block l and cr = column block r in
    match mode with
    | Full ->
      let sel = Histogram.sel_join cl.Column.histogram cr.Column.histogram in
      (* Unique-key clamp: a join into a key column returns at most one match
         per probing row. *)
      let key_side_rows =
        let tl = (Query_block.quantifier block l.Colref.q).Quantifier.table in
        let tr = (Query_block.quantifier block r.Colref.q).Quantifier.table in
        let is_key (col : Column.t) (t : Table.t) =
          col.Column.distinct >= 0.95 *. t.Table.row_count
        in
        if is_key cr tr then Some tr.Table.row_count
        else if is_key cl tl then Some tl.Table.row_count
        else None
      in
      let sel =
        match key_side_rows with
        | Some rows -> Float.min sel (1.0 /. Float.max 1.0 rows)
        | None -> sel
      in
      Float.max 1e-12 sel
    | Simple ->
      1.0 /. Float.max 1.0 (Float.max cl.Column.distinct cr.Column.distinct)
  end

(* Correlation back-off: multiple join predicates between the same pair of
   quantifiers are rarely independent, so the i-th most selective predicate
   contributes sel^(1/2^i), as in several commercial estimators.  Both modes
   apply it — it is a predicate-level rule, not a key/FD adjustment — so the
   two models stay close enough that the card-1 Cartesian heuristic only
   occasionally disagrees between them (the paper's -2%..24% HSJN error). *)
let combined_join_selectivity mode block preds =
  match mode with
  | Simple | Full ->
    let module Pair_map = Map.Make (struct
      type t = int * int

      let compare = compare
    end) in
    let by_pair =
      List.fold_left
        (fun acc p ->
          match Pred.join_cols p with
          | None -> acc
          | Some (l, r) ->
            let key =
              if l.Colref.q <= r.Colref.q then (l.Colref.q, r.Colref.q)
              else (r.Colref.q, l.Colref.q)
            in
            let sel = join_selectivity mode block p in
            Pair_map.update key
              (function None -> Some [ sel ] | Some sels -> Some (sel :: sels))
              acc)
        Pair_map.empty preds
    in
    Pair_map.fold
      (fun _ sels acc ->
        let sorted = List.sort Float.compare sels in
        let _, product =
          List.fold_left
            (fun (i, acc) sel ->
              (i + 1, acc *. (sel ** (1.0 /. (2.0 ** float_of_int i)))))
            (0, 1.0) sorted
        in
        acc *. product)
      by_pair 1.0

let of_set mode block tables =
  let base =
    Bitset.fold
      (fun q acc ->
        acc *. (Query_block.quantifier block q).Quantifier.table.Table.row_count)
      tables 1.0
  in
  let locals =
    List.fold_left
      (fun acc p ->
        if (not (Pred.is_join p)) && Pred.applicable_within p tables then
          acc *. local_selectivity mode block p
        else acc)
      1.0 block.Query_block.preds
  in
  let joins =
    List.filter
      (fun p -> Pred.is_join p && Pred.applicable_within p tables)
      block.Query_block.preds
  in
  let jsel = combined_join_selectivity mode block joins in
  Float.max 1e-6 (base *. locals *. jsel)
