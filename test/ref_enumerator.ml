(* Reference join enumerator: the pre-adjacency-index naive DPsize loop,
   kept verbatim (minus metrics) as the differential-testing oracle for
   Enumerator.run.  Every (size, split) visit tests all lefts x rights
   pairs and rescans the block's full predicate list per pair — exactly
   the behaviour the indexed enumerator must reproduce join-for-join,
   because the COTE contract is that estimator and optimizer share the
   exact join set. *)

module O = Qopt_optimizer
module Bitset = Qopt_util.Bitset

let crossing_preds (block : O.Query_block.t) s l =
  List.filter (fun p -> O.Pred.crosses p s l) block.O.Query_block.preds

(* The join event's [pred_ids]: the same scan, keeping list indices. *)
let crossing_pred_ids (block : O.Query_block.t) s l =
  List.concat
    (List.mapi
       (fun i p -> if O.Pred.crosses p s l then [ i ] else [])
       block.O.Query_block.preds)

(* The old list-returning accessor, rebuilt on top of the iteration API the
   MEMO now exposes (creation order, materialized before the pair loop). *)
let entries_of_size memo size =
  let acc = ref [] in
  O.Memo.iter_entries_of_size memo size (fun e -> acc := e :: !acc);
  List.rev !acc

(* [on_pair] fires once per considered pair — the old loop's
   [enumerator.pairs_considered] — so tests can quantify how much work the
   adjacency gate skips. *)
let run ?(on_pair = fun () -> ()) ~(knobs : O.Knobs.t) ~card_of memo consumer =
  let block = O.Memo.block memo in
  let stats = O.Memo.stats memo in
  let n = O.Query_block.n_quantifiers block in
  for q = 0 to n - 1 do
    let entry, created = O.Memo.find_or_create memo (Bitset.singleton q) in
    if created then consumer.O.Enumerator.on_entry entry
  done;
  for size = 2 to n do
    for lsize = 1 to size / 2 do
      let rsize = size - lsize in
      let lefts = entries_of_size memo lsize in
      let rights = entries_of_size memo rsize in
      List.iter
        (fun (s : O.Memo.entry) ->
          List.iter
            (fun (l : O.Memo.entry) ->
              on_pair ();
              let dedup_ok =
                lsize <> rsize
                || Bitset.compare s.O.Memo.tables l.O.Memo.tables < 0
              in
              if dedup_ok && Bitset.disjoint s.O.Memo.tables l.O.Memo.tables
              then begin
                let union = Bitset.union s.O.Memo.tables l.O.Memo.tables in
                let union_valid =
                  Bitset.for_all
                    (fun q ->
                      Bitset.subset
                        (O.Query_block.quantifier block q).O.Quantifier.deps
                        union)
                    union
                in
                if union_valid then begin
                  let preds =
                    crossing_preds block s.O.Memo.tables l.O.Memo.tables
                  in
                  let cartesian = preds = [] in
                  let cartesian_ok =
                    (not cartesian)
                    || knobs.O.Knobs.allow_cartesian
                    || (knobs.O.Knobs.card1_cartesian
                       && ((Bitset.cardinal s.O.Memo.tables
                            <= knobs.O.Knobs.card1_max_size
                           && card_of s <= knobs.O.Knobs.card1_threshold)
                          || (Bitset.cardinal l.O.Memo.tables
                              <= knobs.O.Knobs.card1_max_size
                             && card_of l <= knobs.O.Knobs.card1_threshold)))
                  in
                  if cartesian_ok then begin
                    let left_outer_ok =
                      O.Enumerator.direction_feasible ~knobs ~block
                        ~outer:s.O.Memo.tables ~inner:l.O.Memo.tables
                    in
                    let right_outer_ok =
                      O.Enumerator.direction_feasible ~knobs ~block
                        ~outer:l.O.Memo.tables ~inner:s.O.Memo.tables
                    in
                    if left_outer_ok || right_outer_ok then begin
                      let result, created = O.Memo.find_or_create memo union in
                      if created then consumer.O.Enumerator.on_entry result;
                      stats.O.Memo.joins_enumerated <-
                        stats.O.Memo.joins_enumerated + 1;
                      consumer.O.Enumerator.on_join
                        {
                          O.Enumerator.left = s;
                          right = l;
                          result;
                          preds;
                          pred_ids =
                            crossing_pred_ids block s.O.Memo.tables
                              l.O.Memo.tables;
                          cartesian;
                          left_outer_ok;
                          right_outer_ok;
                        }
                    end
                  end
                end
              end)
            rights)
        lefts
    done
  done
