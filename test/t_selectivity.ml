(* The per-MEMO selectivity context.

   [Cardinality.card] over a context must equal the historical per-call
   model ([test/ref_cardinality.ml]) bit for bit on every MEMO entry, in
   both modes; the join cost context and the index-probe cost must read the
   same with and without the context's values; and the enumerator's
   [pred_ids] must name exactly the event's predicates. *)

module O = Qopt_optimizer
module W = Qopt_workloads
module C = Qopt_catalog
module Bitset = Qopt_util.Bitset

let t name f = Alcotest.test_case name `Quick f

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let mode_name = function O.Cardinality.Full -> "full" | O.Cardinality.Simple -> "simple"

let serial = O.Cost_model.params O.Env.serial

let parallel = O.Cost_model.params (O.Env.parallel ~nodes:4)

(* Every MEMO entry of one enumeration of [block] under [mode] (the
   entries' cached cardinalities come from the MEMO's context), checked
   against the reference model.  Returns the mismatches. *)
let card_mismatches ~knobs mode block =
  let memo = O.Memo.create block in
  O.Enumerator.run ~knobs ~card_of:(O.Memo.card_of memo mode) memo
    { O.Enumerator.on_entry = ignore; on_join = ignore };
  let bad = ref [] in
  O.Memo.iter_entries
    (fun e ->
      let got = O.Memo.card_of memo mode e in
      let want = Ref_cardinality.of_set mode block e.O.Memo.tables in
      let wrapped = O.Cardinality.of_set mode block e.O.Memo.tables in
      if not (same got want && same wrapped want) then
        bad :=
          Printf.sprintf "%s %s %s: %h (of_set %h) vs reference %h"
            block.O.Query_block.name (mode_name mode)
            (Format.asprintf "%a" Bitset.pp e.O.Memo.tables)
            got wrapped want
          :: !bad)
    memo;
  !bad

(* For every enumerated join and both directions: the cost inputs from the
   context equal the on-the-spot ones, and [pred_ids] index [preds]. *)
let join_ctx_mismatches ~knobs block =
  let memo = O.Memo.create block in
  let sel = O.Memo.selectivity memo O.Cardinality.Full in
  let preds_arr = Array.of_list block.O.Query_block.preds in
  let bad = ref [] in
  let fail what = bad := (block.O.Query_block.name ^ ": " ^ what) :: !bad in
  let on_join (ev : O.Enumerator.join_event) =
    let preds = ev.O.Enumerator.preds in
    if
      List.length ev.O.Enumerator.pred_ids <> List.length preds
      || not (List.for_all2 (fun i p -> preds_arr.(i) == p) ev.O.Enumerator.pred_ids preds)
    then fail "pred_ids do not index preds";
    let direction (y : O.Memo.entry) =
      let inner_card = O.Memo.card_of memo O.Cardinality.Full y in
      let inner_tables = y.O.Memo.tables in
      List.iter
        (fun params ->
          let a =
            O.Cost_model.join_context ~sel:(sel, ev.O.Enumerator.pred_ids) params block
              ~preds ~inner_card
          in
          let b = O.Cost_model.join_context params block ~preds ~inner_card in
          if
            not
              (same a.O.Cost_model.matches_per_outer b.O.Cost_model.matches_per_outer
              && same a.O.Cost_model.skew b.O.Cost_model.skew)
          then fail "join_context differs";
          let pa = O.Cost_model.inner_probe_cost ~sel params block ~preds ~inner_tables in
          let pb = O.Cost_model.inner_probe_cost params block ~preds ~inner_tables in
          match (pa, pb) with
          | None, None -> ()
          | Some x, Some y when same x y -> ()
          | _ -> fail "inner_probe_cost differs")
        [ serial; parallel ]
    in
    direction ev.O.Enumerator.right;
    direction ev.O.Enumerator.left
  in
  O.Enumerator.run ~knobs ~card_of:(O.Memo.card_of memo O.Cardinality.Full) memo
    { O.Enumerator.on_entry = ignore; on_join };
  !bad

let all_mismatches ~knobs block =
  let acc = ref [] in
  O.Query_block.iter_blocks
    (fun b ->
      acc :=
        card_mismatches ~knobs O.Cardinality.Full b
        @ card_mismatches ~knobs O.Cardinality.Simple b
        @ join_ctx_mismatches ~knobs b
        @ !acc)
    block;
  !acc

let check_none what = function
  | [] -> ()
  | bad ->
    Alcotest.failf "%s: %d mismatches, first: %s" what (List.length bad) (List.hd bad)

let workload_queries () =
  let schema = W.Warehouse.schema ~partitioned:false in
  List.concat_map
    (fun (wl : W.Workload.t) ->
      List.map (fun (q : W.Workload.query) -> q.W.Workload.block) wl.W.Workload.queries)
    [
      W.Warehouse.real1_w ~partitioned:false;
      W.Warehouse.real2_w ~partitioned:true;
      W.Tpch.all ~partitioned:false;
      W.Synthetic.star ~partitioned:false;
      W.Random_gen.generate ~seed:42 ~count:20 ~complexity:8 ~schema ();
    ]

(* ------------------------------------------------------------------ *)
(* Random blocks: several predicates per pair (back-off), same-quantifier *)
(* equalities, IN lists, expensive predicates over 2+ quantifiers, an    *)
(* outer join and a subquery child.                                     *)
(* ------------------------------------------------------------------ *)

let gen_spec =
  QCheck2.Gen.(
    let* n = int_range 2 7 in
    let* parents = flatten_l (List.init (n - 1) (fun i -> int_range 0 i)) in
    let* multi = list_repeat (n - 1) (int_range 0 2) in
    let* extra = small_list (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    let* locals =
      small_list (triple (int_range 0 (n - 1)) (int_range 0 6) (int_range 0 120))
    in
    let* udfs =
      small_list (pair (list_size (int_range 2 3) (int_range 0 (n - 1))) (int_range 1 100))
    in
    let* oj = opt (int_range 1 (n - 1)) in
    let* child = bool in
    let* rows = list_repeat n (int_range 1 5000) in
    return (n, parents, multi, extra, locals, udfs, oj, child, rows))

let block_of_spec (_, parents, multi, extra, locals, udfs, oj, child, rows) =
  let cr = O.Colref.make in
  let quantifiers =
    List.mapi
      (fun i r ->
        let rows = float_of_int r in
        let indexes =
          if i mod 2 = 0 then [ C.Index.make ~name:(Printf.sprintf "ix%d" i) [ "j2" ] ]
          else []
        in
        O.Quantifier.make i
          (Helpers.table ~rows ~indexes
             ~cols:[ C.Column.make ~rows ~distinct:50.0 ~skewed:true "s" ]
             (Printf.sprintf "r%d" i)))
      rows
  in
  let tree =
    List.concat
      (List.mapi
         (fun i p ->
           O.Pred.Eq_join (cr p "j1", cr (i + 1) "j1")
           :: List.init (List.nth multi i) (fun k ->
                  let c = if k = 0 then "j2" else "s" in
                  O.Pred.Eq_join (cr (i + 1) c, cr p c)))
         parents)
  in
  let extra =
    List.filter_map
      (fun (a, b) -> if a <> b then Some (O.Pred.Eq_join (cr a "s", cr b "s")) else None)
      extra
  in
  let locals =
    List.map
      (fun (q, kind, v) ->
        let v = float_of_int v in
        match kind with
        | 0 -> O.Pred.Local_cmp (cr q "v", O.Pred.Eq, v /. 10.0)
        | 1 -> O.Pred.Local_cmp (cr q "s", O.Pred.Lt, v)
        | 2 -> O.Pred.Local_cmp (cr q "j2", O.Pred.Le, v)
        | 3 -> O.Pred.Local_cmp (cr q "s", O.Pred.Gt, v /. 2.0)
        | 4 -> O.Pred.Local_cmp (cr q "j1", O.Pred.Ge, v)
        | 5 -> O.Pred.Local_in (cr q "s", 1 + (int_of_float v mod 9))
        | _ -> O.Pred.Eq_join (cr q "j1", cr q "j2"))
      locals
  in
  let udfs =
    List.map
      (fun (qs, s) ->
        O.Pred.Expensive (Bitset.of_list qs, float_of_int s /. 100.0, 0.1))
      udfs
  in
  let outer_joins =
    match oj with
    | None -> []
    | Some k ->
      [ { O.Query_block.oj_preserved = Bitset.singleton 0; oj_null = Bitset.singleton k } ]
  in
  let children = if child then [ Helpers.chain ~extra:1 3 ] else [] in
  O.Query_block.make ~name:"random" ~outer_joins ~children ~quantifiers
    ~preds:(tree @ extra @ locals @ udfs) ()

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:60 gen f)

let suite =
  [
    t "context cardinalities equal the reference on every workload MEMO entry"
      (fun () ->
        List.iter
          (fun b -> check_none b.O.Query_block.name (all_mismatches ~knobs:O.Knobs.default b))
          (workload_queries ()));
    t "context cardinalities equal the reference on giant chains and cycles" (fun () ->
        List.iter
          (fun (shape, n, seed) ->
            let b = W.Giant.block ~seed shape n in
            check_none b.O.Query_block.name (all_mismatches ~knobs:O.Knobs.default b))
          [
            (W.Giant.Chain, 20, 0);
            (W.Giant.Chain, 14, 3);
            (W.Giant.Cycle, 20, 0);
            (W.Giant.Cycle, 12, 5);
          ]);
    prop "random blocks: context equals reference, permissive and default knobs"
      gen_spec (fun spec ->
        let b = block_of_spec spec in
        check_none "permissive" (all_mismatches ~knobs:(O.Knobs.permissive O.Knobs.default) b);
        check_none "default" (all_mismatches ~knobs:O.Knobs.default b);
        true);
    t "one context per MEMO, replaced only by a mode switch" (fun () ->
        let b = Helpers.chain 3 in
        let memo = O.Memo.create b in
        let full = O.Memo.selectivity memo O.Cardinality.Full in
        Alcotest.(check bool) "reused" true
          (full == O.Memo.selectivity memo O.Cardinality.Full);
        let simple = O.Memo.selectivity memo O.Cardinality.Simple in
        Alcotest.(check bool) "mode switch: fresh" true (simple != full);
        Alcotest.(check bool) "mode switch: its mode" true
          (O.Cardinality.ctx_mode simple = O.Cardinality.Simple));
    t "pair selectivity is symmetric and 1 for non-adjacent pairs" (fun () ->
        let b = Helpers.chain ~extra:1 3 in
        let c = O.Cardinality.context O.Cardinality.Full b in
        Alcotest.(check bool) "symmetric" true
          (same (O.Cardinality.pair_sel c 0 1) (O.Cardinality.pair_sel c 1 0));
        Alcotest.(check bool) "non-adjacent" true (same (O.Cardinality.pair_sel c 0 2) 1.0));
    t "plan generation times logical properties in the card bucket" (fun () ->
        (* Without the card-1 Cartesian rule the enumerator never asks for a
           cardinality, so every card-bucket second comes from the
           generator's own logical-property work. *)
        let r =
          O.Optimizer.optimize O.Env.serial ~knobs:Helpers.stable_knobs (Helpers.chain 5)
        in
        Alcotest.(check bool) "card bucket charged" true
          (r.O.Optimizer.breakdown.O.Instrument.s_card > 0.0));
  ]
