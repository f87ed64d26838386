module Bitset = Qopt_util.Bitset
module Column = Qopt_catalog.Column
module Table = Qopt_catalog.Table
module Histogram = Qopt_catalog.Histogram

type mode =
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

(* [Histogram.sel_join] of a join predicate's two columns: the O(buckets^2)
   read that both the cardinality model and the join cost context need. *)
let raw_join_selectivity block p =
  match Pred.join_cols p with
  | None -> 1.0
  | Some (l, r) ->
    Histogram.sel_join (column block l).Column.histogram
      (column block r).Column.histogram

(* Selectivity of an equality join predicate given its raw histogram
   estimate (only [Full] reads it). *)
let join_selectivity mode block p ~raw =
  match Pred.join_cols p with
  | None -> 1.0
  | Some (l, r) -> begin
    let cl = column block l and cr = column block r in
    match mode with
    | Full ->
      let sel = raw () in
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
let backoff sels =
  let sorted = List.sort Float.compare sels in
  let _, product =
    List.fold_left
      (fun (i, acc) sel -> (i + 1, acc *. (sel ** (1.0 /. (2.0 ** float_of_int i)))))
      (0, 1.0) sorted
  in
  product

(* ------------------------------------------------------------------ *)
(* The per-MEMO selectivity context                                    *)
(* ------------------------------------------------------------------ *)

(* Every slot starts as NaN ("not yet computed") and is filled on first
   use.  No model output is NaN, and one that were would merely be
   recomputed on each read, so the sentinel never changes a value. *)
type ctx = {
  c_mode : mode;
  c_block : Query_block.t;
  c_n : int;
  c_preds : Pred.t array;  (* [preds] by index *)
  c_locals : (int * Bitset.t) array;
      (* non-join predicates, in list order: index and quantifiers *)
  c_local : float array;  (* per predicate: local selectivity *)
  c_raw : float array;  (* per predicate: [Histogram.sel_join] *)
  c_pair : float array;  (* per pair [a * n + b], a < b: back-off product *)
  c_hit : float array;  (* per quantifier: index-probe buffer-hit ratio *)
  c_skew : float array;  (* per predicate: parallel skew of its left column *)
}

let context mode block =
  let preds = Array.of_list block.Query_block.preds in
  let n = Query_block.n_quantifiers block in
  let locals = ref [] in
  Array.iteri
    (fun i p -> if not (Pred.is_join p) then locals := (i, Pred.tables p) :: !locals)
    preds;
  {
    c_mode = mode;
    c_block = block;
    c_n = n;
    c_preds = preds;
    c_locals = Array.of_list (List.rev !locals);
    c_local = Array.make (Array.length preds) Float.nan;
    c_raw = Array.make (Array.length preds) Float.nan;
    c_pair = Array.make (n * n) Float.nan;
    c_hit = Array.make n Float.nan;
    c_skew = Array.make (Array.length preds) Float.nan;
  }

let ctx_mode c = c.c_mode

let ctx_block c = c.c_block

let local_sel c i =
  let v = c.c_local.(i) in
  if Float.is_nan v then begin
    let v = local_selectivity c.c_mode c.c_block c.c_preds.(i) in
    c.c_local.(i) <- v;
    v
  end
  else v

let raw_join_sel c i =
  let v = c.c_raw.(i) in
  if Float.is_nan v then begin
    let v = raw_join_selectivity c.c_block c.c_preds.(i) in
    c.c_raw.(i) <- v;
    v
  end
  else v

let raw_join_product c ids = List.fold_left (fun acc i -> acc *. raw_join_sel c i) 1.0 ids

let pair_sel c a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  let k = (a * c.c_n) + b in
  let v = c.c_pair.(k) in
  if Float.is_nan v then begin
    let sels =
      List.fold_left
        (fun acc (i, p) ->
          join_selectivity c.c_mode c.c_block p ~raw:(fun () -> raw_join_sel c i)
          :: acc)
        []
        (Query_block.pair_preds c.c_block a b)
    in
    let v = backoff sels in
    c.c_pair.(k) <- v;
    v
  end
  else v

let cost_input slots k compute =
  let v = slots.(k) in
  if Float.is_nan v then begin
    let v = compute () in
    slots.(k) <- v;
    v
  end
  else v

let probe_hit c q compute = cost_input c.c_hit q compute

let join_skew c i compute = cost_input c.c_skew i compute

(* The product order is the historical [of_set]'s, so every cardinality is
   bit-identical to it: row counts by ascending quantifier, then local
   selectivities in predicate-list order, then the per-pair back-off
   products in ascending (a, b) order — each of the three a separate
   product from 1.0. *)
let card c tables =
  let block = c.c_block in
  let base =
    Bitset.fold
      (fun q acc ->
        acc *. (Query_block.quantifier block q).Quantifier.table.Table.row_count)
      tables 1.0
  in
  let locals = ref 1.0 in
  Array.iter
    (fun (i, ts) -> if Bitset.subset ts tables then locals := !locals *. local_sel c i)
    c.c_locals;
  let jsel =
    Bitset.fold
      (fun a acc ->
        Bitset.fold
          (fun b acc -> if b > a then acc *. pair_sel c a b else acc)
          (Bitset.inter (Query_block.neighbors block a) tables)
          acc)
      tables 1.0
  in
  Float.max 1e-6 (base *. !locals *. jsel)

let of_set mode block tables = card (context mode block) tables
