module O = Qopt_optimizer
module Bitset = Qopt_util.Bitset

type options = {
  first_join_only : bool;
  separate_lists : bool;
}

let default_options = { first_join_only = true; separate_lists = true }

type compound = (O.Order_prop.t option * O.Partition_prop.t option) list

type t = {
  env : O.Env.t;
  memo : O.Memo.t;
  block : O.Query_block.t;
  options : options;
  counts : O.Memo.counts;
  mutable scans : int;
  (* Compound-vector mode only: per-entry (order, partition) pairs. *)
  pairs : (int, compound) Hashtbl.t;
  (* The kept-plan figure beyond one plan per entry: the sum over entries
     of [entry_plans - 1] in separate-list mode, of [entry_plans] in
     compound mode.  Every list change adds its delta here, so reading the
     figure never walks the MEMO. *)
  mutable kept_extra : int;
}

let create ?(options = default_options) env memo =
  {
    env;
    memo;
    block = O.Memo.block memo;
    options;
    counts = O.Memo.counts_zero ();
    scans = 0;
    pairs = Hashtbl.create 64;
    kept_extra = 0;
  }

let counts t = t.counts

let scan_plans t = t.scans

let card_of t entry = O.Memo.card_of t.memo O.Cardinality.Simple entry

let pairs_of t (e : O.Memo.entry) =
  Option.value ~default:[] (Hashtbl.find_opt t.pairs (Bitset.to_int e.O.Memo.tables))

(* The Section 6.2 memory model's kept plans for one entry. *)
let entry_plans t (e : O.Memo.entry) =
  if t.options.separate_lists then
    (List.length e.O.Memo.i_orders + 1) * max 1 (List.length e.O.Memo.i_parts)
  else List.length (pairs_of t e)

let set_pairs t (e : O.Memo.entry) pairs =
  let old = List.length (pairs_of t e) in
  Hashtbl.replace t.pairs (Bitset.to_int e.O.Memo.tables) pairs;
  t.kept_extra <- t.kept_extra + List.length pairs - old

(* Separate-list mode: run [f], which may rewrite [e]'s order and
   partition lists, and add the change in [e]'s kept plans. *)
let tracking_lists t (e : O.Memo.entry) f =
  let before = entry_plans t e in
  f ();
  t.kept_extra <- t.kept_extra + entry_plans t e - before

(* ------------------------------------------------------------------ *)
(* initialize() — Table 3                                              *)
(* ------------------------------------------------------------------ *)

let on_entry t (entry : O.Memo.entry) =
  if Bitset.cardinal entry.O.Memo.tables = 1 then begin
    let q = Bitset.min_elt entry.O.Memo.tables in
    (* Eager order policy: reuse the precomputed interesting orders for base
       tables (Section 4 point 1). *)
    let orders = O.Interesting.orders_for_table t.block q in
    (* Lazy partition policy: seed from the physical partitioning only,
       keeping interesting values. *)
    let parts =
      match O.Plan_gen.default_partition t.env t.block q with
      | None -> []
      | Some p ->
        if
          O.Interesting.partition_interesting t.block O.Equiv.empty
            ~tables:entry.O.Memo.tables p
        then [ p ]
        else []
    in
    tracking_lists t entry (fun () ->
        entry.O.Memo.i_orders <- orders;
        entry.O.Memo.i_parts <- parts);
    (* Scans pipeline, so a pipelinable variant always exists at the leaves
       (relevant only for top-N queries). *)
    entry.O.Memo.i_pipe <- true;
    t.scans <-
      t.scans + 1 + List.length orders
      + List.length (O.Interesting.filter_indexes t.block q);
    if not t.options.separate_lists then begin
      let phys = O.Plan_gen.default_partition t.env t.block q in
      let pairs =
        (None, phys)
        :: List.map (fun o -> (Some o, phys)) orders
      in
      set_pairs t entry pairs
    end
  end

(* ------------------------------------------------------------------ *)
(* Property propagation                                                *)
(* ------------------------------------------------------------------ *)

let join_cols preds =
  List.concat_map
    (fun p -> match O.Pred.join_cols p with Some (l, r) -> [ l; r ] | None -> [])
    preds

(* Section 4's repartitioning-heuristic test, on the interesting partition
   lists: triggered when no input partition value is keyed on a join
   column. *)
let repart_triggers t equiv ~(left : O.Memo.entry) ~(right : O.Memo.entry) ~preds
    =
  O.Env.is_parallel t.env && preds <> []
  &&
  let jcs = join_cols preds in
  let keyed p = List.exists (O.Partition_prop.keyed_on equiv p) jcs in
  not
    (List.exists keyed left.O.Memo.i_parts
    || List.exists keyed right.O.Memo.i_parts)

let propagate_separate t equiv (event : O.Enumerator.join_event) ~orders =
  let j = event.O.Enumerator.result in
  let tables = j.O.Memo.tables in
  let from_side (e : O.Memo.entry) outer_ok =
    if outer_ok then begin
      (* Orders travel with the outer role (Section 4 point 3); a property
         must be propagatable by at least one method, unretired, and not
         equivalent to a value already in the list. *)
      if orders then
        List.iter
          (fun o ->
            if not (O.Interesting.order_retired t.block equiv ~tables o) then
              j.O.Memo.i_orders <-
                O.Order_prop.insert_dedup equiv o j.O.Memo.i_orders)
          e.O.Memo.i_orders;
      List.iter
        (fun p ->
          if O.Interesting.partition_interesting t.block equiv ~tables p then
            j.O.Memo.i_parts <-
              O.Partition_prop.insert_dedup equiv p j.O.Memo.i_parts)
        e.O.Memo.i_parts
    end
  in
  from_side event.O.Enumerator.left event.O.Enumerator.left_outer_ok;
  from_side event.O.Enumerator.right event.O.Enumerator.right_outer_ok;
  (* Pipelinability propagates through NLJN/MGJN when both inputs have a
     pipelinable variant; HSJN never propagates it (Table 1). *)
  if
    event.O.Enumerator.left.O.Memo.i_pipe
    && event.O.Enumerator.right.O.Memo.i_pipe
  then j.O.Memo.i_pipe <- true;
  (* Propagate the extra join-column partition created by the repartitioning
     heuristic. *)
  if repart_triggers t equiv ~left:event.O.Enumerator.left
       ~right:event.O.Enumerator.right ~preds:event.O.Enumerator.preds
  then begin
    match join_cols event.O.Enumerator.preds with
    | [] -> ()
    | jc :: _ ->
      (* "We propagate additional partitions on join columns if the test
         fails" — unconditionally: the repartitioned plans exist whether or
         not the new partition stays interesting upstream. *)
      let p = O.Partition_prop.hash [ O.Equiv.repr equiv jc ] in
      j.O.Memo.i_parts <- O.Partition_prop.insert_dedup equiv p j.O.Memo.i_parts
  end

let propagate_compound t equiv (event : O.Enumerator.join_event) =
  let j = event.O.Enumerator.result in
  let tables = j.O.Memo.tables in
  let existing = pairs_of t j in
  (* Fresh values accumulate prepended and are appended to the list once at
     the end — the previous [existing @ [x]] per addition rebuilt the whole
     list each time, turning propagation quadratic in the list length. *)
  let added = ref [] in
  let add (o, p) =
    let same (o', p') =
      (match (o, o') with
      | None, None -> true
      | Some a, Some b -> O.Order_prop.equal_under equiv a b
      | None, Some _ | Some _, None -> false)
      &&
      match (p, p') with
      | None, None -> true
      | Some a, Some b -> O.Partition_prop.equal_under equiv a b
      | None, Some _ | Some _, None -> false
    in
    if not (List.exists same existing || List.exists same !added) then
      added := (o, p) :: !added
  in
  let from_side (e : O.Memo.entry) outer_ok =
    if outer_ok then
      List.iter
        (fun (o, p) ->
          (* A compound value retires only when every component is retired
             (Section 3.4) — this keeps retired orders alive alongside
             interesting partitions. *)
          let o_dead =
            match o with
            | None -> true
            | Some o -> O.Interesting.order_retired t.block equiv ~tables o
          in
          let p_dead =
            match p with
            | None -> true
            | Some p ->
              not (O.Interesting.partition_interesting t.block equiv ~tables p)
          in
          if not (o_dead && p_dead) then add (o, p))
        (pairs_of t e)
  in
  from_side event.O.Enumerator.left event.O.Enumerator.left_outer_ok;
  from_side event.O.Enumerator.right event.O.Enumerator.right_outer_ok;
  if !added <> [] then set_pairs t j (existing @ List.rev !added)

(* ------------------------------------------------------------------ *)
(* accumulate_plans() — Table 3 with the Section 4 refinements          *)
(* ------------------------------------------------------------------ *)

let mgjn_candidates equiv ~(mo : O.Order_prop.t) orders =
  let covering =
    List.filter (fun o -> O.Order_prop.covers equiv ~base:mo ~candidate:o) orders
  in
  let mo_present =
    List.exists (fun o -> O.Order_prop.equal_under equiv o mo) covering
  in
  List.length covering + if mo_present then 0 else 1

let count_direction_separate t equiv (event : O.Enumerator.join_event)
    ~(x : O.Memo.entry) ~into =
  let preds = event.O.Enumerator.preds in
  let h =
    if
      repart_triggers t equiv ~left:event.O.Enumerator.left
        ~right:event.O.Enumerator.right ~preds
    then 1
    else 0
  in
  let pfac =
    if O.Env.is_parallel t.env then max 1 (List.length x.O.Memo.i_parts) else 1
  in
  (* Top-N queries keep one pipelinable variant alongside the regular plans
     when both inputs can pipeline (the third property of Table 1) — an
     extra slot like the DC convention, not a full combinatorial factor,
     because the unordered scan variants already pipeline. *)
  let pipe_extra =
    if
      t.block.O.Query_block.first_n <> None
      && event.O.Enumerator.left.O.Memo.i_pipe
      && event.O.Enumerator.right.O.Memo.i_pipe
    then 1
    else 0
  in
  let norders = List.length x.O.Memo.i_orders in
  O.Memo.counts_add into O.Join_method.NLJN
    (((norders + 1) * pfac) + pipe_extra + h);
  (match O.Interesting.merge_order equiv preds with
  | None -> ()
  | Some mo ->
    let cands = mgjn_candidates equiv ~mo x.O.Memo.i_orders in
    O.Memo.counts_add into O.Join_method.MGJN ((cands * pfac) + h));
  O.Memo.counts_add into O.Join_method.HSJN (pfac + h)

let count_direction_compound t equiv (event : O.Enumerator.join_event)
    ~(x : O.Memo.entry) ~into =
  let preds = event.O.Enumerator.preds in
  let pairs = pairs_of t x in
  let h =
    if
      repart_triggers t equiv ~left:event.O.Enumerator.left
        ~right:event.O.Enumerator.right ~preds
    then 1
    else 0
  in
  let distinct_parts =
    List.fold_left
      (fun acc (_, p) ->
        let mem =
          List.exists
            (fun p' ->
              match (p, p') with
              | None, None -> true
              | Some a, Some b -> O.Partition_prop.equal_under equiv a b
              | None, Some _ | Some _, None -> false)
            acc
        in
        if mem then acc else p :: acc)
      [] pairs
  in
  let nparts = max 1 (List.length distinct_parts) in
  O.Memo.counts_add into O.Join_method.NLJN (List.length pairs + h);
  (match O.Interesting.merge_order equiv preds with
  | None -> ()
  | Some mo ->
    let covering =
      List.filter
        (fun (o, _) ->
          match o with
          | None -> false
          | Some o -> O.Order_prop.covers equiv ~base:mo ~candidate:o)
        pairs
    in
    (* Enforced merge joins fill partitions lacking a covering pair. *)
    let covered_parts =
      List.length
        (List.filter
           (fun p ->
             List.exists
               (fun (_, p') ->
                 match (p, p') with
                 | None, None -> true
                 | Some a, Some b -> O.Partition_prop.equal_under equiv a b
                 | None, Some _ | Some _, None -> false)
               covering)
           distinct_parts)
    in
    let enforced = max 0 (nparts - covered_parts) in
    O.Memo.counts_add into O.Join_method.MGJN
      (List.length covering + enforced + h));
  O.Memo.counts_add into O.Join_method.HSJN (nparts + h)

let count_into t (event : O.Enumerator.join_event) ~left_ok ~right_ok into =
  let equiv = O.Memo.equiv_of t.memo event.O.Enumerator.result in
  let count_dir =
    if t.options.separate_lists then count_direction_separate
    else count_direction_compound
  in
  if left_ok then count_dir t equiv event ~x:event.O.Enumerator.left ~into;
  if right_ok then count_dir t equiv event ~x:event.O.Enumerator.right ~into

let on_join t (event : O.Enumerator.join_event) =
  let j = event.O.Enumerator.result in
  let equiv = O.Memo.equiv_of t.memo j in
  (* Count this join's plans from the *input* lists first... *)
  count_into t event ~left_ok:event.O.Enumerator.left_outer_ok
    ~right_ok:event.O.Enumerator.right_outer_ok t.counts;
  (* ... then propagate lists to the result entry.  The first-join-only
     shortcut (Section 4 point 4) applies to *orders* — "order properties
     propagated to the same MEMO entry are hardly changed from join to
     join" — so partitions (few, and direction-sensitive) propagate on
     every join. *)
  let first = not j.O.Memo.propagated_once in
  if t.options.separate_lists then
    tracking_lists t j (fun () ->
        propagate_separate t equiv event
          ~orders:(first || not t.options.first_join_only))
  else propagate_compound t equiv event;
  j.O.Memo.propagated_once <- true

let consumer t =
  { O.Enumerator.on_entry = on_entry t; O.Enumerator.on_join = on_join t }

(* An entry whose lists were never set keeps one plan in separate-list
   mode ([(0 + 1) * max 1 0]) and none in compound mode. *)
let kept_plans t =
  if t.options.separate_lists then O.Memo.n_entries t.memo + t.kept_extra
  else t.kept_extra
