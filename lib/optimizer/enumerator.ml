module Bitset = Qopt_util.Bitset
module Obs = Qopt_obs

(* Process-wide enumeration metrics (no-ops unless Qopt_obs is enabled). *)
let m_subsets = Obs.Registry.counter Obs.Registry.default "enumerator.subsets"

let m_pairs = Obs.Registry.counter Obs.Registry.default "enumerator.pairs_considered"

let m_pruned = Obs.Registry.counter Obs.Registry.default "enumerator.pairs_pruned"

let m_joins = Obs.Registry.counter Obs.Registry.default "enumerator.joins_feasible"

type join_event = {
  left : Memo.entry;
  right : Memo.entry;
  result : Memo.entry;
  preds : Pred.t list;
  pred_ids : int list;
  cartesian : bool;
  left_outer_ok : bool;
  right_outer_ok : bool;
}

type consumer = {
  on_entry : Memo.entry -> unit;
  on_join : join_event -> unit;
}

let direction_feasible ~knobs ~block ~outer ~inner =
  let quant q = Query_block.quantifier block q in
  (* Composite-inner limit / left-deep shape. *)
  let inner_size = Bitset.cardinal inner in
  (if knobs.Knobs.left_deep_only then inner_size = 1
   else
     match knobs.Knobs.max_inner with
     | None -> true
     | Some k -> inner_size <= k)
  (* Every quantifier of the outer must allow the role. *)
  && Bitset.for_all (fun q -> (quant q).Quantifier.outer_allowed) outer
  (* The outer cannot need correlation values produced by the inner. *)
  && Bitset.for_all
       (fun q -> Bitset.disjoint (quant q).Quantifier.deps inner)
       outer
  (* A null-producing side cannot be the outer against its preserved side. *)
  && List.for_all
       (fun oj ->
         not
           ((not (Bitset.disjoint outer oj.Query_block.oj_null))
           && not (Bitset.disjoint inner oj.Query_block.oj_preserved)))
       block.Query_block.outer_joins

(* A composite is valid once every correlated quantifier inside it has all
   its providers inside as well (singletons are always valid leaves). *)
let union_valid block union =
  Bitset.for_all
    (fun q ->
      Bitset.subset (Query_block.quantifier block q).Quantifier.deps union)
    union

let run ?flush ~knobs ~card_of memo consumer =
  (* With [flush], a level's events are buffered (newest first) and handed
     over once its enumeration pass is complete. *)
  let pending = ref [] in
  let emit =
    match flush with
    | None -> consumer.on_join
    | Some _ -> fun ev -> pending := ev :: !pending
  in
  let block = Memo.block memo in
  let stats = Memo.stats memo in
  let n = Query_block.n_quantifiers block in
  (* Leaf entries. *)
  for q = 0 to n - 1 do
    let entry, created = Memo.find_or_create memo (Bitset.singleton q) in
    if created then begin
      Obs.Counter.incr m_subsets;
      consumer.on_entry entry
    end
  done;
  let full_scan = knobs.Knobs.allow_cartesian in
  let card1 = knobs.Knobs.card1_cartesian in
  let card1_max = knobs.Knobs.card1_max_size in
  let card1_thresh = knobs.Knobs.card1_threshold in
  for size = 2 to n do
    for lsize = 1 to size / 2 do
      let rsize = size - lsize in
      Memo.iter_entries_of_size memo lsize (fun (s : Memo.entry) ->
          (* The adjacency gate: a pair is skipped before any per-pair work
             (or metrics) when it is structurally unable to join — the
             symmetric duplicate of an equal-size split, an overlapping
             right-hand side, or a right-hand side disjoint from the left's
             join-graph neighborhood that no cartesian knob admits.  The
             card-1 escape uses the same cached [card_of] the old check
             consulted, so the gate is exact: every pair it admits runs the
             full check below unchanged, and every pair it skips is one the
             naive loop would have rejected — the enumerated join set is
             bit-for-bit the naive loop's. *)
          let neigh = Memo.neighborhood memo s in
          let s_card1 =
            lazy
              (card1
              && Bitset.cardinal s.Memo.tables <= card1_max
              && card_of s <= card1_thresh)
          in
          Memo.iter_entries_of_size memo rsize (fun (l : Memo.entry) ->
              if
                (lsize <> rsize
                || Bitset.compare s.Memo.tables l.Memo.tables < 0)
                && Bitset.disjoint s.Memo.tables l.Memo.tables
                && ((not (Bitset.disjoint l.Memo.tables neigh))
                   || full_scan || Lazy.force s_card1
                   || (card1
                      && Bitset.cardinal l.Memo.tables <= card1_max
                      && card_of l <= card1_thresh))
              then begin
                Obs.Counter.incr m_pairs;
                let feasible = ref false in
                let union = Bitset.union s.Memo.tables l.Memo.tables in
                if union_valid block union then begin
                  let tagged =
                    Query_block.crossing_preds_indexed block s.Memo.tables
                      l.Memo.tables
                  in
                  let cartesian = tagged = [] in
                  let cartesian_ok =
                    (not cartesian)
                    || knobs.Knobs.allow_cartesian
                    || (knobs.Knobs.card1_cartesian
                       && ((Bitset.cardinal s.Memo.tables
                            <= knobs.Knobs.card1_max_size
                           && card_of s <= knobs.Knobs.card1_threshold)
                          || (Bitset.cardinal l.Memo.tables
                              <= knobs.Knobs.card1_max_size
                             && card_of l <= knobs.Knobs.card1_threshold)))
                  in
                  if cartesian_ok then begin
                    let left_outer_ok =
                      direction_feasible ~knobs ~block ~outer:s.Memo.tables
                        ~inner:l.Memo.tables
                    in
                    let right_outer_ok =
                      direction_feasible ~knobs ~block ~outer:l.Memo.tables
                        ~inner:s.Memo.tables
                    in
                    if left_outer_ok || right_outer_ok then begin
                      feasible := true;
                      Obs.Counter.incr m_joins;
                      let result, created = Memo.find_or_create memo union in
                      if created then begin
                        Obs.Counter.incr m_subsets;
                        consumer.on_entry result
                      end;
                      stats.Memo.joins_enumerated <-
                        stats.Memo.joins_enumerated + 1;
                      emit
                        {
                          left = s;
                          right = l;
                          result;
                          preds = List.map snd tagged;
                          pred_ids = List.map fst tagged;
                          cartesian;
                          left_outer_ok;
                          right_outer_ok;
                        }
                    end
                  end
                end;
                if not !feasible then Obs.Counter.incr m_pruned
              end))
    done;
    match (flush, !pending) with
    | Some f, (_ :: _ as evs) ->
      pending := [];
      f (Array.of_list (List.rev evs))
    | Some _, [] | None, _ -> ()
  done
